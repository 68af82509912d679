// Package simcore provides the discrete-event machinery underneath the
// cluster simulator: a zero-allocation event queue with a deterministic
// tie-break order, a simulated clock, and busy-server resource helpers.
//
// The queue is a value-typed 4-ary min-heap of small (time, seq, slot) keys
// ordered exactly as the original binary heap of *Event pointers was — by
// time, ties broken by scheduling order — plus a free-listed slab of event
// bodies. A body carries a typed callback: an Action plus a pointer
// payload and two integer arguments, so scheduling needs no closure.
// Steady-state scheduling and stepping through Call/Step touches only the
// heap slice and the slab, so it performs zero heap allocations per event
// once the engine has warmed up to its peak queue depth.
package simcore

import (
	"phttp/internal/core"
)

// Action is a closure-free event callback: obj is an arbitrary pointer
// payload and a, b are small integer arguments (a phase code, a node index —
// whatever the caller encodes). Using a package-level function or a method
// expression as an Action allocates nothing at schedule time, unlike a
// closure.
type Action func(obj any, a, b int64)

// heapKey is one 4-ary heap element: the ordering key plus the slab slot of
// the event's body. Keeping the key small makes sift swaps cheap. Events at
// equal times fire in scheduling order (seq), which keeps runs
// deterministic.
type heapKey struct {
	at   core.Micros
	seq  uint64
	slot int32
}

// body is the out-of-line payload of a scheduled event. next links free
// slots.
type body struct {
	action Action
	obj    any
	a, b   int64
	next   int32
}

const noSlot int32 = -1

// Engine owns the clock, the pending-event heap and the body slab.
type Engine struct {
	now    core.Micros
	seq    uint64
	keys   []heapKey
	bodies []body
	free   int32
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{free: noSlot}
}

// Reset returns the engine to its initial state — clock at zero, nothing
// pending — while keeping the heap and body-slab capacity, so a sweep
// worker can reuse one engine's arenas across grid points instead of
// regrowing them from zero on every run. Payload references in the
// retained slab are dropped. A reset engine is observably identical to a
// fresh one (allocation order included), which keeps reused-engine runs
// byte-identical to fresh-engine runs.
func (e *Engine) Reset() {
	clear(e.bodies)
	e.keys = e.keys[:0]
	e.bodies = e.bodies[:0]
	e.free = noSlot
	e.now = 0
	e.seq = 0
}

// Now returns the current simulated time.
func (e *Engine) Now() core.Micros { return e.now }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.keys) }

// alloc acquires a body slot from the free list, growing the slab only when
// the queue exceeds its historical peak depth.
//
//phttp:hotpath
func (e *Engine) alloc() int32 {
	if e.free == noSlot {
		e.bodies = append(e.bodies, body{})
		return int32(len(e.bodies) - 1)
	}
	s := e.free
	e.free = e.bodies[s].next
	return s
}

// push schedules body slot s at time t, preserving the exact (time, seq)
// order of the original container/heap implementation.
//
//phttp:hotpath
func (e *Engine) push(t core.Micros, s int32) {
	if t < e.now {
		panic("simcore: event scheduled in the past")
	}
	e.seq++
	e.keys = append(e.keys, heapKey{at: t, seq: e.seq, slot: s})
	e.siftUp(len(e.keys) - 1)
}

func (k heapKey) less(o heapKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

//phttp:hotpath
func (e *Engine) siftUp(i int) {
	keys := e.keys
	k := keys[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(keys[parent]) {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}

//phttp:hotpath
func (e *Engine) siftDown(i int) {
	keys := e.keys
	n := len(keys)
	k := keys[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if keys[c].less(keys[min]) {
				min = c
			}
		}
		if !keys[min].less(k) {
			break
		}
		keys[i] = keys[min]
		i = min
	}
	keys[i] = k
}

// Call schedules the closure-free event act(obj, a, b) at absolute time t.
// Scheduling in the past panics: that is always a modelling bug, not a
// recoverable condition.
//
//phttp:hotpath
func (e *Engine) Call(t core.Micros, act Action, obj any, a, b int64) {
	if act == nil {
		panic("simcore: Call with nil Action")
	}
	s := e.alloc()
	e.bodies[s] = body{action: act, obj: obj, a: a, b: b, next: noSlot}
	e.push(t, s)
}

// CallAfter schedules act(obj, a, b) to run d after the current time.
//
//phttp:hotpath
func (e *Engine) CallAfter(d core.Micros, act Action, obj any, a, b int64) {
	e.Call(e.now+d, act, obj, a, b)
}

// Step runs the earliest pending event, advancing the clock. It reports
// whether an event ran.
//
//phttp:hotpath
func (e *Engine) Step() bool {
	if len(e.keys) == 0 {
		return false
	}
	top := e.keys[0]
	n := len(e.keys) - 1
	e.keys[0] = e.keys[n]
	e.keys = e.keys[:n]
	if n > 0 {
		e.siftDown(0)
	}
	// Copy the body out and release the slot before dispatching, clearing
	// the references so the slab never retains dead payloads; the callback
	// may schedule new events into the freed slot.
	b := e.bodies[top.slot]
	e.bodies[top.slot] = body{next: e.free}
	e.free = top.slot
	e.now = top.at
	b.action(b.obj, b.a, b.b)
	return true
}

// Run processes events until the queue drains or the event budget is
// exhausted, returning the number of events processed. A budget of 0 means
// unlimited.
func (e *Engine) Run(budget int) int {
	n := 0
	for e.Step() {
		n++
		if budget > 0 && n >= budget {
			break
		}
	}
	return n
}

// Resource models a serially shared device (a CPU or a disk) with FIFO
// service: work scheduled on it starts at max(now, busyUntil) and occupies
// the device for its cost. Busy time is accumulated for utilization
// reporting.
type Resource struct {
	busyUntil core.Micros
	busyTotal core.Micros
	queued    int
}

// Schedule reserves the resource for cost starting no earlier than now and
// returns the completion time. queued is incremented until Release is called
// by the caller at completion (via the engine).
//
//phttp:hotpath
func (r *Resource) Schedule(now, cost core.Micros) core.Micros {
	start := r.busyUntil
	if now > start {
		start = now
	}
	done := start + cost
	r.busyUntil = done
	r.busyTotal += cost
	r.queued++
	return done
}

// Release records the completion of one scheduled unit of work.
//
//phttp:hotpath
func (r *Resource) Release() {
	r.queued--
	if r.queued < 0 {
		panic("simcore: resource released more than scheduled")
	}
}

// Queued returns the number of in-flight work items (scheduled, not yet
// released). The extended LARD disk heuristic consumes this for disks.
func (r *Resource) Queued() int { return r.queued }

// BusyUntil returns the time the resource drains if no more work arrives.
func (r *Resource) BusyUntil() core.Micros { return r.busyUntil }

// BusyTotal returns the accumulated busy time.
func (r *Resource) BusyTotal() core.Micros { return r.busyTotal }

// Utilization returns busy time divided by elapsed time (0 if none elapsed).
func (r *Resource) Utilization(elapsed core.Micros) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(r.busyTotal) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
