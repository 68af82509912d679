package dispatch

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"phttp/internal/core"
	"phttp/internal/policy"
)

// benchSpec sizes the engine like a prototype front-end over 8 back-ends
// with the given per-node mapping budget.
func benchSpec(pol string, mech core.Mechanism, cacheBytes int64) Spec {
	return Spec{
		Policy:     pol,
		Nodes:      8,
		CacheBytes: cacheBytes,
		Params:     policy.DefaultParams(),
		Mechanism:  mech,
	}
}

// benchStreamLen is how many pipelined batches each benchmark goroutine
// cycles through: long enough that the Zipf tail keeps missing the mapping,
// short enough to pre-build for every goroutine.
const benchStreamLen = 4096

// benchStream pre-builds one goroutine's request stream: benchStreamLen
// batches of four Zipf-popular targets, interned through the engine's
// interner as the prototype's HTTP parser does. Building it outside the
// timed loop keeps target formatting and batch allocation out of the
// dispatch measurement.
func benchStream(in *core.Interner, seed int64) []core.Batch {
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 1, 1<<14)
	reqs := make([]core.Request, 4*benchStreamLen)
	for i := range reqs {
		t := core.Target(fmt.Sprintf("/z%d", zipf.Uint64()))
		reqs[i] = core.Request{Target: t, ID: in.Intern(t), Size: 8 << 10}
	}
	stream := make([]core.Batch, benchStreamLen)
	for i := range stream {
		stream[i] = reqs[4*i : 4*i+4 : 4*i+4]
	}
	return stream
}

// dispatchConn runs one full connection lifecycle against the engine: open
// on the batch's first target, assign the pipelined batch, close. Every
// call goes through lock, when non-nil — that is the serialized baseline,
// the old front-end design with one polMu around the policy.
func dispatchConn(eng *Engine, lock *sync.Mutex, batch core.Batch) {
	if lock != nil {
		lock.Lock()
	}
	c, _ := eng.ConnOpen(batch[0])
	if lock != nil {
		lock.Unlock()
		lock.Lock()
	}
	eng.AssignBatch(c, batch)
	if lock != nil {
		lock.Unlock()
		lock.Lock()
	}
	eng.ConnClose(c)
	if lock != nil {
		lock.Unlock()
	}
}

func runDispatchBench(b *testing.B, tc dispatchCase, serialized bool) {
	eng, err := NewEngine(benchSpec(tc.pol, tc.mech, tc.cacheBytes))
	if err != nil {
		b.Fatal(err)
	}
	var lock *sync.Mutex
	if serialized {
		lock = &sync.Mutex{}
	}
	// RunParallel starts GOMAXPROCS goroutines; give each its own stream
	// and warm the engine (connection pool, mapping, policy buffers) with
	// one pass over every stream so the timed loop sees steady state.
	streams := make([][]core.Batch, runtime.GOMAXPROCS(0))
	for i := range streams {
		streams[i] = benchStream(eng.Interner(), int64(i)+1)
		for _, batch := range streams[i] {
			dispatchConn(eng, lock, batch)
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		stream := streams[int(next.Add(1)-1)%len(streams)]
		i := 0
		for pb.Next() {
			dispatchConn(eng, lock, stream[i])
			if i++; i == len(stream) {
				i = 0
			}
		}
	})
}

type dispatchCase struct {
	name       string
	pol        string
	mech       core.Mechanism
	cacheBytes int64
}

// dispatchCases covers each policy family once with a mapping budget that
// holds the whole Zipf universe (steady state measures the dispatch path),
// plus the LARD family on a 1 MB budget (128 targets per node) where most
// misses evict, so the mapping's eviction path is measured too.
var dispatchCases = []dispatchCase{
	{"wrr", "wrr", core.SingleHandoff, 1 << 30},
	{"lard", "lard", core.SingleHandoff, 1 << 30},
	{"extlard", "extlard", core.BEForwarding, 1 << 30},
	{"lard-evict", "lard", core.SingleHandoff, 1 << 20},
	{"extlard-evict", "extlard", core.BEForwarding, 1 << 20},
}

// BenchmarkDispatch measures parallel dispatch throughput through the
// concurrency-safe engine: mixed ConnOpen / AssignBatch / ConnClose over
// pre-built, pre-interned Zipf request streams from GOMAXPROCS goroutines.
// The timed loop is the dispatch path alone, so lard and extlard report
// 0 allocs/op (as TestDispatchSteadyStateZeroAllocs pins).
//
//	go test -run '^$' -bench 'BenchmarkDispatch' -cpu 1,2 ./internal/dispatch/
//
// At -cpu 1 the engine and the serialized baseline are equivalent; with
// more cores the gap between them is what running dispatch concurrently
// per client connection buys the front-end.
func BenchmarkDispatch(b *testing.B) {
	for _, tc := range dispatchCases {
		b.Run(tc.name, func(b *testing.B) { runDispatchBench(b, tc, false) })
	}
}

// BenchmarkDispatchSerialized is the pre-refactor baseline: the identical
// workload with every engine call behind one global mutex, exactly the old
// polMu design of the prototype front-end.
func BenchmarkDispatchSerialized(b *testing.B) {
	for _, tc := range dispatchCases {
		b.Run(tc.name, func(b *testing.B) { runDispatchBench(b, tc, true) })
	}
}
