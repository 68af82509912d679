package simcore

import (
	"container/heap"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

// refEvent and refHeap reimplement the original container/heap engine the
// 4-ary value heap replaced; the property tests pin the new engine to its
// exact firing order, including equal-time tie-breaks.
type refEvent struct {
	at  core.Micros
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine drains a schedule through the reference heap and returns the
// firing order by event id.
type refEngine struct {
	now core.Micros
	seq uint64
	h   refHeap
}

func (r *refEngine) at(t core.Micros, id int) {
	r.seq++
	heap.Push(&r.h, &refEvent{at: t, seq: r.seq, id: id})
}

func (r *refEngine) drain() []int {
	var order []int
	for r.h.Len() > 0 {
		e := heap.Pop(&r.h).(*refEvent)
		r.now = e.at
		order = append(order, e.id)
	}
	return order
}

// TestEngineMatchesReferenceHeap drives the value-typed 4-ary engine and the
// reference container/heap implementation with the same schedule — times
// drawn from a narrow range so equal-time ties are common — and demands
// bit-identical firing order.
func TestEngineMatchesReferenceHeap(t *testing.T) {
	f := func(times []uint8) bool {
		e := NewEngine()
		ref := &refEngine{}
		var got []int
		for i, tm := range times {
			at := core.Micros(tm % 16) // heavy tie collisions
			id := i
			e.Call(at, runFn, func() { got = append(got, id) }, 0, 0)
			ref.at(at, i)
		}
		e.Run(0)
		want := ref.drain()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEngineMatchesReferenceHeapNested extends the property to events that
// schedule further events — the simulator's actual shape — interleaving pops
// with pushes so the heaps are exercised in mixed order.
func TestEngineMatchesReferenceHeapNested(t *testing.T) {
	f := func(times []uint8) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine()
		var got []int
		next := 0
		var schedule func(delay core.Micros)
		schedule = func(delay core.Micros) {
			if next >= len(times) {
				return
			}
			id := next
			d := core.Micros(times[next] % 8)
			next++
			e.CallAfter(delay, runFn, func() {
				got = append(got, id)
				// Each event spawns up to two children at small offsets,
				// creating same-time collisions with pending siblings.
				schedule(d)
				schedule(d / 2)
			}, 0, 0)
		}
		schedule(0)

		// Reference run: replay the identical recursion over the reference
		// heap, stepping it event by event so nested scheduling sees the
		// advanced clock exactly as the real engine does.
		ref := &refEngine{}
		refNext := 0
		fired := []int{}
		refSchedule := func(delay core.Micros) {
			if refNext >= len(times) {
				return
			}
			id := refNext
			refNext++
			ref.at(ref.now+delay, id)
		}
		refDelay := make(map[int]core.Micros, len(times))
		for i, tm := range times {
			refDelay[i] = core.Micros(tm % 8)
		}
		refSchedule(0)
		for ref.h.Len() > 0 {
			ev := heap.Pop(&ref.h).(*refEvent)
			ref.now = ev.at
			fired = append(fired, ev.id)
			d := refDelay[ev.id]
			refSchedule(d)
			refSchedule(d / 2)
		}

		e.Run(0)
		if len(got) != len(fired) {
			return false
		}
		for i := range got {
			if got[i] != fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// runFn is the Action the ordering tests schedule closures through: obj is
// the func() to run.
func runFn(obj any, _, _ int64) { obj.(func())() }

// stepPayload is the typed-callback payload used by the allocation tests.
type stepPayload struct {
	eng *Engine
	n   int
}

func stepAction(obj any, a, b int64) {
	p := obj.(*stepPayload)
	p.n++
	if a > 0 {
		p.eng.CallAfter(1, stepAction, p, a-1, b)
	}
}

// TestEngineSteadyStateZeroAllocs pins the tentpole claim: scheduling and
// stepping closure-free events in steady state performs zero heap
// allocations per event once the slab and heap have warmed up.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e := NewEngine()
	p := &stepPayload{eng: e}
	// Warm up: grow the heap slice and body slab to peak depth.
	for i := 0; i < 64; i++ {
		e.CallAfter(core.Micros(i+1), stepAction, p, 0, 0)
	}
	e.Run(0)

	avg := testing.AllocsPerRun(1000, func() {
		e.CallAfter(1, stepAction, p, 0, 0)
		if !e.Step() {
			t.Fatal("no event to step")
		}
	})
	if avg != 0 {
		t.Errorf("steady-state schedule+step allocates %.2f allocs/op, want 0", avg)
	}
}

// TestEngineChainZeroAllocs runs a self-rescheduling chain — the simulator's
// dominant pattern — and checks the whole chain allocates nothing.
func TestEngineChainZeroAllocs(t *testing.T) {
	e := NewEngine()
	p := &stepPayload{eng: e}
	e.CallAfter(1, stepAction, p, 8, 0) // warm the slab
	e.Run(0)
	avg := testing.AllocsPerRun(200, func() {
		e.CallAfter(1, stepAction, p, 64, 0)
		e.Run(0)
	})
	if avg != 0 {
		t.Errorf("event chain allocates %.2f allocs/run, want 0", avg)
	}
}

// TestEngineCallOrderInterleavesWithCallAfter pins that absolute (Call)
// and relative (CallAfter) scheduling share one tie-break sequence: from an
// event at t=2, both forms aimed at t=5 fire in scheduling order.
func TestEngineCallOrderInterleavesWithCallAfter(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(obj any, a, b int64) { got = append(got, int(a)) }
	e.Call(2, func(any, int64, int64) {
		e.Call(5, rec, nil, 0, 0)
		e.CallAfter(3, rec, nil, 1, 0)
		e.Call(5, rec, nil, 2, 0)
		e.CallAfter(1, rec, nil, 3, 0)
	}, nil, 0, 0)
	e.Run(0)
	want := []int{3, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("mixed Call/CallAfter order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mixed Call/CallAfter order = %v, want %v", got, want)
		}
	}
}

func TestEngineCallNilActionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Call(nil) did not panic")
		}
	}()
	NewEngine().Call(1, nil, nil, 0, 0)
}
