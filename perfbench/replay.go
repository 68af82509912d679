package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/dispatch"
	"phttp/internal/dstate"
	"phttp/internal/httpmsg"
	"phttp/internal/policy"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// Layer replays feed a workload's own inputs through one layer's public
// functions in this process, with nothing else running, and time them.
// Each replay first runs once untimed so caches, mapping tables and
// interners are in their steady state, then runs the measured passes.

// replayPasses is the number of measured passes per replay; the reported
// time is their median.
const replayPasses = 5

// nominalSize is the size the front-end assumes for every target when it
// sizes mapping entries: it cannot know response sizes when requests
// arrive, and the replay must make the same decisions it does.
const nominalSize = 8 << 10

func replayLayers(w protoWorkload, tra *trace.Trace, conns []core.Connection, wire [][][]byte, tr *tracer, rep *report) {
	replayParse(wire, tr, rep)
	spec := dispatch.Spec{Policy: w.policy, Nodes: protoBackends, Mechanism: w.mech,
		CacheBytes: w.cacheBytes, Params: policy.DefaultParams()}
	replayDispatch(spec, conns, tr, rep)
	if w.frontends > 1 {
		replayTier(spec, w.frontends, conns, tr, rep)
	}
	// With the working set cached every Open is a hit; otherwise the
	// replay would mostly time the modeled disk's sleeps.
	if w.cacheBytes >= tra.WorkingSetBytes() {
		replayDocStore(w, tra, conns, tr, rep)
	}
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// clockCost is what one time.Now/time.Since pair around nothing
// measures; per-call timings subtract it.
func clockCost() time.Duration {
	const n = 100000
	var d time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		d += time.Since(t)
	}
	return d / n
}

// replayParse parses the exact request bytes the client sent with
// httpmsg.ReadRequestInterned, as the front-end does.
func replayParse(wire [][][]byte, tr *tracer, rep *report) {
	var all bytes.Buffer
	for _, c := range wire {
		for _, b := range c {
			all.Write(b)
		}
	}
	in := core.NewInterner()
	pass := func() int64 {
		br := bufio.NewReader(bytes.NewReader(all.Bytes()))
		var n int64
		for {
			if _, err := httpmsg.ReadRequestInterned(br, in); err != nil {
				if err != io.EOF {
					rep.fail(1, "httpmsg replay: %v", err)
				}
				return n
			}
			n++
		}
	}
	n := pass()
	var ns []float64
	var allocs uint64
	for i := 0; i < replayPasses; i++ {
		m0 := mallocs()
		d := tr.timed("httpmsg.parse", func() { pass() })
		allocs += mallocs() - m0
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
	}
	rep.layer["httpmsg.parse_ns_per_req"] = value{v: median(ns), n: n * replayPasses}
	rep.layer["httpmsg.parse_allocs_per_req"] = value{v: float64(allocs) / float64(n*replayPasses), n: n * replayPasses}
}

// internConns copies the connections' requests with IDs from in and the
// front-end's nominal size.
func internConns(conns []core.Connection, in *core.Interner) [][]core.Batch {
	out := make([][]core.Batch, 0, len(conns))
	for _, c := range conns {
		if c.Requests() == 0 {
			continue
		}
		bs := make([]core.Batch, len(c.Batches))
		for j, b := range c.Batches {
			nb := make(core.Batch, len(b))
			for k, r := range b {
				nb[k] = core.Request{Target: r.Target, ID: in.Intern(r.Target), Size: nominalSize}
			}
			bs[j] = nb
		}
		out = append(out, bs)
	}
	return out
}

// dispatchPass replays every connection through engs (connection k on
// engs[k % len]) in the front-end's call order: ConnOpen, AssignBatch per
// batch, ConnClose. It returns the time spent in AssignBatch and in
// ConnOpen+ConnClose, the request and connection counts, and the
// requests assigned away from the connection's handling node.
func dispatchPass(engs []*dispatch.Engine, conns [][]core.Batch) (assign, conn time.Duration, reqs, lateral int64) {
	for k, bs := range conns {
		e := engs[k%len(engs)]
		t := time.Now()
		c, handling := e.ConnOpen(bs[0][0])
		conn += time.Since(t)
		for _, b := range bs {
			t = time.Now()
			as := e.AssignBatch(c, b)
			assign += time.Since(t)
			for _, a := range as {
				if a.Node != handling {
					lateral++
				}
			}
			reqs += int64(len(b))
		}
		t = time.Now()
		e.ConnClose(c)
		conn += time.Since(t)
	}
	return assign, conn, reqs, lateral
}

// replayDispatch runs the workload's connections through one dispatch
// engine built from the front-end's spec.
func replayDispatch(spec dispatch.Spec, conns []core.Connection, tr *tracer, rep *report) {
	eng, err := dispatch.NewEngine(spec)
	if err != nil {
		rep.fail(1, "dispatch replay: %v", err)
		return
	}
	bs := internConns(conns, eng.Interner())
	engs := []*dispatch.Engine{eng}
	dispatchPass(engs, bs)
	clock := clockCost()
	var assignNs, connNs []float64
	var allocs uint64
	var reqs, lateral int64
	for i := 0; i < replayPasses; i++ {
		m0 := mallocs()
		var a, c time.Duration
		var r, l int64
		tr.timed("dispatch.replay", func() { a, c, r, l = dispatchPass(engs, bs) })
		allocs += mallocs() - m0
		reqs, lateral = reqs+r, lateral+l
		assignNs = append(assignNs, float64((a-time.Duration(countBatches(bs))*clock).Nanoseconds())/float64(r))
		connNs = append(connNs, float64((c-2*time.Duration(len(bs))*clock).Nanoseconds())/float64(len(bs)))
	}
	rep.layer["dispatch.assign_ns_per_req"] = value{v: median(assignNs), n: reqs,
		base: fmt.Sprintf("AssignBatch time over requests, %v clock cost per call removed", clock)}
	rep.layer["dispatch.conn_ns_per_conn"] = value{v: median(connNs), n: int64(len(bs) * replayPasses),
		base: "ConnOpen+ConnClose time over connections"}
	rep.layer["dispatch.allocs_per_req"] = value{v: float64(allocs) / float64(reqs), n: reqs}
	rep.layer["dispatch.lateral_frac"] = value{v: frac(float64(lateral), float64(reqs)), n: reqs,
		base: fmt.Sprintf("%d of %d requests assigned away from the connection's node", lateral, reqs)}
}

func countBatches(bs [][]core.Batch) int {
	n := 0
	for _, c := range bs {
		n += len(c)
	}
	return n
}

// replayTier runs the connections through an in-process sharded
// dispatch-state tier of the workload's size, connection k on front-end
// k mod size as the clients spread them.
func replayTier(spec dispatch.Spec, frontends int, conns []core.Connection, tr *tracer, rep *report) {
	spec.Interner = core.NewInterner()
	engs, _, err := dispatch.NewTierEngines(spec, dstate.TierConfig{
		Mode: dstate.ModeSharded, Frontends: frontends, Seed: cluster.DefaultStateSeed})
	if err != nil {
		rep.fail(1, "dstate replay: %v", err)
		return
	}
	bs := internConns(conns, spec.Interner)
	dispatchPass(engs, bs)
	clock := clockCost()
	var connNs []float64
	for i := 0; i < replayPasses; i++ {
		var c time.Duration
		tr.timed("dstate.replay", func() { _, c, _, _ = dispatchPass(engs, bs) })
		connNs = append(connNs, float64((c-2*time.Duration(len(bs))*clock).Nanoseconds())/float64(len(bs)))
	}
	rep.layer["dstate.conn_ns_per_conn"] = value{v: median(connNs), n: int64(len(bs) * replayPasses),
		base: fmt.Sprintf("ConnOpen+ConnClose over a %d-front-end sharded tier", frontends)}
}

// replayDocStore opens every requested target through one back-end doc
// store sized like the workload's.
func replayDocStore(w protoWorkload, tra *trace.Trace, conns []core.Connection, tr *tracer, rep *report) {
	store := cluster.NewDocStore(tra.Catalog(), w.cacheBytes, server.DefaultDisk(), w.timeScale)
	var targets []core.Target
	for _, c := range conns {
		for _, b := range c.Batches {
			for _, r := range b {
				targets = append(targets, r.Target)
			}
		}
	}
	pass := func() {
		for _, t := range targets {
			if _, err := store.Open(t); err != nil {
				rep.fail(1, "docstore replay: %v", err)
				return
			}
		}
	}
	pass()
	var ns []float64
	for i := 0; i < replayPasses; i++ {
		d := tr.timed("cluster.docstore", pass)
		ns = append(ns, float64(d.Nanoseconds())/float64(len(targets)))
	}
	rep.layer["cluster.docstore_ns_per_req"] = value{v: median(ns), n: int64(len(targets) * replayPasses)}
}
