package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"time"

	"phttp/internal/core"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// The sim-sweep workload is the simulator's reference grid (the Figure 7
// combos over 1-6 Apache nodes) on a synthetic trace, run in this process
// with one worker through sim's public sweep entry point, one grid point
// per call so each point is timed on its own. It exercises the
// simulator core, policies, dispatch, the cache models and the latency
// histograms with no sockets. Its results are deterministic, so each
// sweep must equal the first.

// simConns is the sweep's trace length: a third of the reference sweep's
// 12000 connections, so a run of 20 s holds about ten sweeps and the
// median sweep time is steady from run to run.
const simConns = 4000

// simSetupRounds is how often a run generates the trace; setup_s is the
// median. setupProbes probe runs on each side of the rounds normalize it.
const (
	simSetupRounds = 5
	setupProbes    = 5
)

// sweepRun is one pass over the grid.
type sweepRun struct {
	wall     time.Duration // the grid points' summed wall time
	mallocs  uint64
	gcCPU    float64 // seconds
	userCPU  float64 // seconds
	points   []time.Duration
	norm     time.Duration // wall normalized by the sweep's median probe
	results  []sim.Result
	requests int64
	events   int64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

// goCPU returns the Go runtime's cumulative GC and user CPU seconds.
func goCPU() (gc, user float64) {
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// sweepOnce runs every grid point once, with a probe run before the
// first point and after each one.
func sweepOnce(wl *trace.Workload, nodes []int, combos []sim.Combo, probe *hostProbe, tr *tracer) (sweepRun, error) {
	var r sweepRun
	sweepID := tr.newID()
	gc0, user0 := goCPU()
	m0 := mallocs()
	start := time.Now()
	probes := []time.Duration{probe.run()}
	for _, c := range combos {
		for _, n := range nodes {
			t := time.Now()
			_, res, err := sim.ClusterSweepWorkload(core.Apache, []int{n}, []sim.Combo{c}, wl, 1)
			end := time.Now()
			if err != nil {
				return r, fmt.Errorf("%s on %d nodes: %w", c.Name, n, err)
			}
			if tr != nil {
				tr.add(tr.rec(sweepID, tr.newID(), sweepID, "sim.point", t, end))
			}
			r.points = append(r.points, end.Sub(t))
			r.wall += end.Sub(t)
			r.results = append(r.results, res[0])
			r.requests += res[0].Requests
			r.events += res[0].Events
			probes = append(probes, probe.run())
		}
	}
	end := time.Now()
	r.mallocs = mallocs() - m0
	gc1, user1 := goCPU()
	r.gcCPU, r.userCPU = gc1-gc0, user1-user0
	r.norm = normalize(r.wall, durMedian(probes))
	if tr != nil {
		tr.add(tr.rec(sweepID, sweepID, 0, "sim.sweep", start, end))
	}
	return r, nil
}

// sweepFor repeats the sweep until d has passed, at least twice, and
// checks every sweep's results against want (the first sweep's when nil).
func sweepFor(d time.Duration, wl *trace.Workload, nodes []int, combos []sim.Combo, probe *hostProbe, tr *tracer,
	want []sim.Result, rep *report) ([]sweepRun, []sim.Result, error) {
	var runs []sweepRun
	start := time.Now()
	for len(runs) < 2 || time.Since(start) < d {
		r, err := sweepOnce(wl, nodes, combos, probe, tr)
		if err != nil {
			return nil, nil, err
		}
		if want == nil {
			want = r.results
		}
		rep.attempted += int64(len(r.results))
		for i, res := range r.results {
			if !reflect.DeepEqual(res, want[i]) {
				rep.fail(1, "sweep %d: grid point %d differs from the first sweep", len(runs), i)
			}
		}
		runs = append(runs, r)
	}
	return runs, want, nil
}

// normSeconds are the sweeps' probe-normalized wall times.
func normSeconds(runs []sweepRun) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.norm.Seconds())
	}
	return xs
}

// simReqPerS is one sweep's simulated requests over the median
// normalized sweep time.
func simReqPerS(runs []sweepRun) float64 {
	return float64(runs[0].requests) / median(normSeconds(runs))
}

// rawReqPerS is the same over the median raw wall time, printed beside
// the normalized figure.
func rawReqPerS(runs []sweepRun) float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.wall.Seconds())
	}
	return float64(runs[0].requests) / median(xs)
}

func runSim(o options) (*report, error) {
	rep := newReport()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	bc := sim.DefaultBenchConfig()
	scfg := trace.DefaultSynthConfig()
	scfg.Seed = o.seed
	scfg.Connections = simConns
	nodes, combos, rounds := bc.Nodes, sim.Combos(), simSetupRounds
	if o.smoke {
		scfg.Connections, nodes, rounds = 300, []int{1, 2}, 1
	}

	// Set-up generates the trace, interns it and derives its HTTP/1.0
	// form, so the first sweep pays for none of that. It is normalized by
	// the probe like the sweeps, with probe runs on either side of it.
	probe := newHostProbe()
	var around []time.Duration
	for i := 0; i < setupProbes; i++ {
		around = append(around, probe.run())
	}
	var wl *trace.Workload
	var setups, gens, flats []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		gens = append(gens, tr.timed("trace.gen", func() {
			wl = trace.NewWorkload(trace.NewSynth(scfg).Generate().EnsureIDs())
		}).Seconds())
		flats = append(flats, tr.timed("trace.flatten", func() { wl.Flatten() }).Seconds())
		setups = append(setups, time.Since(t0).Seconds())
	}
	for i := 0; i < setupProbes; i++ {
		around = append(around, probe.run())
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	rep.e2e["setup_s"] = value{v: normalize(setup, durMedian(around)).Seconds(), n: int64(len(setups)),
		base: fmt.Sprintf("median of %d, probe-normalized; raw %.6g", len(setups), setup.Seconds())}
	rep.layer["trace.gen_s"] = value{v: median(gens), n: int64(len(gens))}
	rep.layer["trace.flatten_s"] = value{v: median(flats), n: int64(len(flats))}

	runs, want, err := sweepFor(seconds(o), wl, nodes, combos, probe, nil, nil, rep)
	if err != nil {
		return nil, err
	}
	simE2E(runs, rep)
	if o.trace {
		traced, _, err := sweepFor(seconds(o), wl, nodes, combos, probe, tr, want, rep)
		if err != nil {
			return nil, err
		}
		simLayers(traced, combos, len(nodes), rep)
		addOverhead(rep, rep.e2e["req_per_s"].v, simReqPerS(traced),
			rep.e2e["latency_p50_ms"].v, median(normSeconds(traced))*1e3)
		rep.spans = tr.snapshot()
		addSelfTimes(rep, rep.spans)
	}
	hwm, err := peakRSSKB(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.e2e["peak_rss_mb"] = value{v: float64(hwm) / 1024, n: 1, base: "VmHWM of the benchmark process"}
	return rep, nil
}

// simE2E reports the end-to-end metrics of untraced sweeps. A sweep is
// the simulator's unit of work — what a user waits for to get the Figure 7
// data — so its latency is the sweep time.
func simE2E(runs []sweepRun, rep *report) {
	n := int64(len(runs))
	base := fmt.Sprintf("over %d sweeps, probe-normalized", n)
	rep.e2e["req_per_s"] = value{v: simReqPerS(runs), n: n,
		base: fmt.Sprintf("simulated requests per median sweep time %s; raw %.6g", base, rawReqPerS(runs))}
	rep.e2e["latency_p50_ms"] = value{v: median(normSeconds(runs)) * 1e3, n: n, base: "sweep time " + base}
}

// simLayers reports the simulator's per-layer metrics from traced sweeps.
// A grid point's span has no children, so its self time is its duration.
func simLayers(runs []sweepRun, combos []sim.Combo, nodes int, rep *report) {
	var nsPerEvent []float64
	var events, reqs int64
	var allocs uint64
	var gc, user float64
	perCombo := make([][]float64, len(combos))
	for _, r := range runs {
		nsPerEvent = append(nsPerEvent, float64(r.wall.Nanoseconds())/float64(r.events))
		events += r.events
		reqs += r.requests
		allocs += r.mallocs
		gc += r.gcCPU
		user += r.userCPU
		for ci := range combos {
			var s time.Duration
			for _, p := range r.points[ci*nodes : (ci+1)*nodes] {
				s += p
			}
			perCombo[ci] = append(perCombo[ci], s.Seconds())
		}
	}
	rep.layer["sim.ns_per_event"] = value{v: median(nsPerEvent), n: int64(len(runs)),
		base: "median over sweeps of wall time over simulated events"}
	rep.layer["sim.events_per_req"] = value{v: frac(float64(events), float64(reqs)), n: reqs,
		base: fmt.Sprintf("%d events over %d simulated requests", events, reqs)}
	rep.layer["sim.allocs_per_event"] = value{v: frac(float64(allocs), float64(events)), n: events}
	rep.layer["sim.gc_cpu_frac"] = value{v: frac(gc, gc+user), n: int64(len(runs)),
		base: fmt.Sprintf("GC CPU %.3f s over GC+user CPU %.3f s", gc, gc+user)}
	for ci, c := range combos {
		rep.layer["sim.combo_s."+c.Name] = value{v: median(perCombo[ci]), n: int64(len(runs)),
			base: fmt.Sprintf("median over sweeps of the self time of its %d grid-point spans", nodes)}
	}
}
