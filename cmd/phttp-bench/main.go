// phttp-bench drives the full prototype cluster (in-process: front-end,
// back-ends and load generator in one process, communicating over real
// sockets with real fd-passing handoff) across policies and cluster sizes,
// regenerating Figure 13 and the Section 8.2 front-end utilization figure.
//
//	phttp-bench                      # Figure 13, 1-6 nodes
//	phttp-bench -time-scale 20       # faster wall clock, same shape
//	phttp-bench -sim-bench BENCH_sim.json   # simulator perf trajectory
//
// Simulated CPU/disk latencies are divided by -time-scale; reported
// throughput is normalized back (multiplied by 1/scale) so the numbers are
// comparable to the paper's 300 MHz-era hardware.
//
// -sim-bench skips the prototype and instead measures the trace-driven
// simulator's reference Figure 7 sweep (serial and parallel), writing the
// ns/event, allocs/event, events/sec and wall-clock trajectory to the named
// JSON file alongside the recorded pre-optimization baseline (see DESIGN.md
// §10 for the methodology).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"phttp/internal/cluster"
	"phttp/internal/core"
	"phttp/internal/loadgen"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

// simBaseline is the reference sweep measured at the pre-optimization
// commit ("PR 1" head: container/heap of *Event closures, string-keyed
// caches, serial sweeps) on the same reference configuration
// (sim.DefaultBenchConfig). Events is left 0 — the old engine did not count
// events — and is filled from the current serial run, which is valid
// because the optimization is event-count preserving (golden tests pin
// result equality). Re-measure when moving the trajectory to new hardware.
var simBaseline = sim.BenchPoint{
	WallMs:  15322,
	Mallocs: 88045813,
}

const simBaselineDescription = "serial sweep at PR1 head (closure event heap, string-keyed caches), same machine"

// keepRecordedScaling decides what the new report's scaling section should
// be, given what the output file already records. A multi-core curve is
// expensive to come by (this dev loop usually runs on one core), so a run
// that measured nothing better — no -scaling, or a 1-CPU skip marker —
// preserves the recorded curve instead of clobbering it; -force overrides.
func keepRecordedScaling(path string, rep *sim.BenchReport, force bool) {
	if force || rep.Scaling.MultiCore() {
		return
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var old sim.BenchReport
	if json.Unmarshal(prev, &old) != nil || !old.Scaling.MultiCore() {
		return
	}
	fmt.Fprintf(os.Stderr,
		"sim-bench: keeping recorded %d-worker scaling curve (this run has %d CPU(s); -force overwrites)\n",
		old.Scaling.GoMaxProcs, rep.Parallel.NumCPU)
	rep.Scaling = old.Scaling
}

// runSimBench measures the simulator reference sweep and writes the
// BENCH_sim.json trajectory.
func runSimBench(path string, seed uint64, scaling, force bool) {
	cfg := sim.DefaultBenchConfig()
	cfg.Seed = seed
	fmt.Fprintf(os.Stderr, "sim-bench: reference sweep (%d combos × %d cluster sizes, %d connections)...\n",
		cfg.Combos, len(cfg.Nodes), cfg.Connections)
	rep, err := sim.RunBench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phttp-bench: sim-bench: %v\n", err)
		os.Exit(1)
	}
	if seed == 1 {
		// The recorded baseline used the reference seed; a different seed
		// changes the workload, so the comparison would be meaningless.
		rep.AttachBaseline(simBaseline, simBaselineDescription)
	}
	if scaling {
		// The curve needs the reference trace only when there are cores
		// to measure; the 1-CPU skip marker costs nothing.
		var tr *trace.Trace
		if runtime.GOMAXPROCS(0) > 1 {
			tcfg := trace.DefaultSynthConfig()
			tcfg.Seed = cfg.Seed
			tcfg.Connections = cfg.Connections
			tr = trace.NewSynth(tcfg).Generate()
		}
		sc, err := sim.MeasureScaling(cfg, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phttp-bench: sim-bench: scaling: %v\n", err)
			os.Exit(1)
		}
		rep.Scaling = &sc
		if sc.Skipped != "" {
			fmt.Fprintf(os.Stderr, "sim-bench: scaling curve %s\n", sc.Skipped)
		}
	}
	keepRecordedScaling(path, &rep, force)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "phttp-bench: sim-bench: %v\n", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "phttp-bench: sim-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr,
		"sim-bench: serial %.0f ms (%.0f ns/event, %.2f allocs/event), parallel %.0f ms on %d procs\n",
		rep.Serial.WallMs, rep.Serial.NsPerEvent, rep.Serial.AllocsPerEvent,
		rep.Parallel.WallMs, rep.Parallel.GoMaxProcs)
	fmt.Fprintf(os.Stderr,
		"sim-bench: cache hit %.1f allocs mapped vs %.1f copied (%.1fx reduction)\n",
		rep.TraceGen.CacheHitAllocs, rep.TraceGen.CacheHitCopyAllocs, rep.TraceGen.CacheHitAllocReduction)
	if rep.Baseline != nil {
		fmt.Fprintf(os.Stderr, "sim-bench: %.2fx wall-clock vs baseline, %.2fx events/sec per run, %.1fx fewer allocs/event\n",
			rep.SpeedupWallClock, rep.PerRunEventsPerSec, rep.PerEventAllocsRatio)
	}
	if rep.Scaling.MultiCore() {
		last := rep.Scaling.Points[len(rep.Scaling.Points)-1]
		fmt.Fprintf(os.Stderr, "sim-bench: scaling %.2fx at %d workers\n", last.Speedup, last.Workers)
	}
	fmt.Printf("wrote %s\n", path)
}

// runLatencyGate runs the deterministic latency gate sweep (the seven
// reference combos at one cluster size) and either records the per-combo
// p99 baseline or checks the run against it. Virtual-time latencies are
// bit-deterministic per (workload, config), so the recorded baseline is
// machine-independent — the gate fails only when simulated behavior
// changes. On multi-core boxes the gate cross-checks that a serial sweep
// reproduces the parallel one's latency summaries; with one CPU that
// check is marked skipped, matching the scaling section's convention.
func runLatencyGate(path string, record bool, cacheDir string) {
	cfg := sim.GateBenchConfig()
	tcfg := trace.DefaultSynthConfig()
	tcfg.Seed = cfg.Seed
	tcfg.Connections = cfg.Connections
	var wl *trace.Workload
	if cacheDir != "" {
		w, hit, err := trace.LoadOrGenerate(cacheDir, tcfg)
		if err != nil {
			fatalf("latency-gate: %v", err)
		}
		fmt.Fprintf(os.Stderr, "latency-gate: trace cache %s: hit=%v\n", cacheDir, hit)
		wl = w
	} else {
		wl = trace.NewWorkload(trace.NewSynth(tcfg).GenerateParallel(0))
	}
	_, results, err := sim.ClusterSweepWorkload(cfg.Server, cfg.Nodes, sim.Combos(), wl, 0)
	if err != nil {
		fatalf("latency-gate: %v", err)
	}
	if record {
		b := sim.NewLatencyBaseline(cfg, results, 5)
		if err := b.Save(path); err != nil {
			fatalf("latency-record: %v", err)
		}
		fmt.Printf("recorded latency baseline for %d combos to %s\n", len(b.P99Ms), path)
		return
	}
	b, err := sim.LoadLatencyBaseline(path)
	if err != nil {
		fatalf("%v", err)
	}
	if err := b.CheckConfig(cfg); err != nil {
		fatalf("%v", err)
	}
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "latency-gate: %-28s p99=%7.2fms (baseline %7.2fms)\n",
			r.Combo, float64(r.Latency.P99)/float64(core.Millisecond), b.P99Ms[r.Combo])
	}
	if runtime.GOMAXPROCS(0) > 1 {
		_, serial, err := sim.ClusterSweepWorkload(cfg.Server, cfg.Nodes, sim.Combos(), wl, 1)
		if err != nil {
			fatalf("latency-gate: serial cross-check: %v", err)
		}
		for i := range serial {
			if serial[i].Latency != results[i].Latency {
				fatalf("latency-gate: serial and parallel sweeps disagree on %s: %+v vs %+v",
					serial[i].Combo, serial[i].Latency, results[i].Latency)
			}
		}
		fmt.Fprintf(os.Stderr, "latency-gate: serial cross-check ok (%d points)\n", len(serial))
	} else {
		fmt.Fprintf(os.Stderr, "latency-gate: serial cross-check skipped_nproc=1\n")
	}
	if regressions := b.CheckResults(results); len(regressions) > 0 {
		for _, msg := range regressions {
			fmt.Fprintf(os.Stderr, "latency-gate: REGRESSION: %s\n", msg)
		}
		fatalf("latency gate failed: %d regression(s) against %s", len(regressions), path)
	}
	fmt.Printf("latency gate PASS: %d combos within %.0f%% of %s\n", len(b.P99Ms), b.TolerancePct, path)
}

// protoCombo is one prototype policy/mechanism/workload combination of
// Figure 13.
type protoCombo struct {
	name   string
	policy string
	mech   core.Mechanism
	http10 bool
}

func protoCombos() []protoCombo {
	return []protoCombo{
		{"BEforward-extLARD-PHTTP", "extlard", core.BEForwarding, false},
		{"simple-LARD", "lard", core.SingleHandoff, true},
		{"simple-LARD-PHTTP", "lard", core.SingleHandoff, false},
		{"WRR-PHTTP", "wrr", core.SingleHandoff, false},
		{"WRR", "wrr", core.SingleHandoff, true},
	}
}

func main() {
	var (
		maxNodes = flag.Int("max-nodes", 6, "largest cluster size")
		conns    = flag.Int("connections", 6000, "trace connections per run")
		seed     = flag.Uint64("seed", 1, "workload seed")
		scale    = flag.Float64("time-scale", 10, "divide simulated latencies (results are normalized back)")
		clients  = flag.Int("clients", 0, "concurrent clients (0 = 32 per node)")
		cacheMB  = flag.Int64("cache-mb", cluster.PrototypeCacheBytes>>20, "per-node cache (MB); scale it with -connections so the touched working set stays ~5x one cache")
		only     = flag.String("only", "", "run only the named combination (e.g. BEforward-extLARD-PHTTP)")
		simBench = flag.String("sim-bench", "", "measure the simulator's reference sweep and write the perf trajectory to this JSON file (skips the prototype benchmark)")
		cacheDir = flag.String("trace-cache", "", "trace cache directory: load the benchmark workload from disk, generating and persisting on miss")
		scenFlag = flag.String("scenario", "", "benchmark the prototype for a declarative scenario (builtin name or JSON file): policy, options, mechanism, workload and node axis come from the spec")
		latGate  = flag.String("latency-gate", "", "run the deterministic latency gate sweep and fail (exit 1) if any combo's p99 exceeds the recorded baseline in this JSON file (skips the prototype benchmark)")
		latRec   = flag.String("latency-record", "", "run the latency gate sweep and (re)write its baseline to this JSON file")
		scaling  = flag.Bool("scaling", false, "with -sim-bench: run the reference sweep at worker counts 1..GOMAXPROCS and record the scaling section (skip marker on 1 CPU)")
		force    = flag.Bool("force", false, "with -sim-bench: allow a run without a multi-core scaling curve to overwrite one already recorded in the output file")
	)
	flag.Parse()

	if *simBench != "" {
		runSimBench(*simBench, *seed, *scaling, *force)
		return
	}
	if *latRec != "" {
		runLatencyGate(*latRec, true, *cacheDir)
		return
	}
	if *latGate != "" {
		runLatencyGate(*latGate, false, *cacheDir)
		return
	}
	if *scenFlag != "" {
		runScenarioBench(*scenFlag, *scale, *clients)
		return
	}

	tcfg := trace.DefaultSynthConfig()
	tcfg.Seed = *seed
	tcfg.Connections = *conns
	var wl *trace.Workload
	if *cacheDir != "" {
		w, hit, err := trace.LoadOrGenerate(*cacheDir, tcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "phttp-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace cache %s: hit=%v\n", *cacheDir, hit)
		wl = w
	} else {
		wl = trace.NewWorkload(trace.NewSynth(tcfg).Generate())
	}
	tr := wl.PHTTP
	fmt.Fprint(os.Stderr, trace.ComputeStats(tr))

	var series []*metrics.Series
	feUtil := &metrics.Series{Name: "FE-util-%(BEforward-extLARD-PHTTP)"}
	for _, combo := range protoCombos() {
		if *only != "" && combo.name != *only {
			continue
		}
		s := &metrics.Series{Name: combo.name}
		for n := 1; n <= *maxNodes; n++ {
			thr, util, err := runOne(combo, n, wl, *scale, *clients, *cacheMB<<20)
			if err != nil {
				fmt.Fprintf(os.Stderr, "phttp-bench: %s n=%d: %v\n", combo.name, n, err)
				os.Exit(1)
			}
			s.Add(float64(n), thr)
			if combo.name == "BEforward-extLARD-PHTTP" {
				feUtil.Add(float64(n), 100*util)
			}
			fmt.Fprintf(os.Stderr, "%-26s n=%d  %8.1f req/s (normalized)  FE %4.1f%%\n",
				combo.name, n, thr, 100*util)
		}
		series = append(series, s)
	}
	fmt.Printf("# Figure 13: prototype throughput (req/s, normalized to modeled hardware) vs nodes\n")
	fmt.Print(metrics.Table("nodes", series...))
	fmt.Printf("\n# Section 8.2: front-end utilization under BEforward-extLARD-PHTTP\n")
	fmt.Print(metrics.Table("nodes", feUtil))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-bench: "+format+"\n", args...)
	os.Exit(1)
}

// runScenarioBench drives the prototype cluster for one declarative
// scenario: the same spec that runs in the simulator (phttp-sim -scenario)
// runs here against real sockets, over the scenario's node axis.
func runScenarioBench(arg string, scale float64, clients int) {
	spec, err := scenario.LoadOrBuiltin(arg)
	if err != nil {
		fatalf("%v", err)
	}
	if spec.Sweep != nil && len(spec.Sweep.Combos) > 0 {
		fatalf("scenario %q sweeps simulator combos; the prototype benchmark needs a policy scenario (run combos sweeps with phttp-sim)", arg)
	}
	// An explicitly passed -time-scale wins over the scenario's value; the
	// scenario wins over the flag's default.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["time-scale"] || spec.Cluster.TimeScale <= 0 {
		spec.Cluster.TimeScale = scale
	}
	wl, _, err := spec.LoadWorkload()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Fprint(os.Stderr, trace.ComputeStats(wl.PHTTP))

	nodesAxis := []int{spec.Cluster.Nodes}
	if spec.Sweep != nil && len(spec.Sweep.Nodes) > 0 {
		nodesAxis = spec.Sweep.Nodes
	}
	label := spec.Name
	if label == "" {
		label = spec.Policy.Name
	}
	s := &metrics.Series{Name: label}
	for _, n := range nodesAxis {
		spec.Cluster.Nodes = n
		clCfg, err := spec.ToClusterConfig(wl.PHTTP.Catalog())
		if err != nil {
			fatalf("%v", err)
		}
		cl, err := cluster.Start(clCfg)
		if err != nil {
			fatalf("n=%d: %v", n, err)
		}
		lgCfg, err := spec.ToLoadgenConfig(cl.Addr(), wl)
		if err != nil {
			cl.Close()
			fatalf("%v", err)
		}
		if clients > 0 {
			lgCfg.Concurrency = clients
		} else if lgCfg.Concurrency == 0 {
			lgCfg.Concurrency = 32 * n
		}
		lgCfg.IOTimeout = 2 * time.Minute
		res, err := loadgen.Run(lgCfg)
		util := cl.FE.Utilization()
		cl.Close()
		if err != nil {
			fatalf("n=%d: %v", n, err)
		}
		if res.Errors > 0 {
			fatalf("n=%d: %d request errors", n, res.Errors)
		}
		thr := res.Throughput / clCfg.TimeScale
		s.Add(float64(n), thr)
		fmt.Fprintf(os.Stderr, "%-26s n=%d  %8.1f req/s (normalized)  FE %4.1f%%\n", label, n, thr, 100*util)
	}
	fmt.Printf("# Scenario %s: prototype throughput (req/s, normalized to modeled hardware) vs nodes\n", label)
	fmt.Print(metrics.Table("nodes", s))
}

// runOne starts a cluster, replays the trace, and returns normalized
// throughput (req/s on modeled hardware) and front-end utilization.
func runOne(combo protoCombo, nodes int, wl *trace.Workload, scale float64, clients int, cacheBytes int64) (float64, float64, error) {
	tr := wl.PHTTP
	cfg := cluster.DefaultConfig(nodes, tr.Catalog())
	cfg.Policy = combo.policy
	cfg.Mechanism = combo.mech
	cfg.TimeScale = scale
	cfg.CacheBytes = cacheBytes
	cl, err := cluster.Start(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()

	if clients <= 0 {
		clients = 32 * nodes
	}
	var flat *trace.Trace
	if combo.http10 {
		flat = wl.Flatten() // memoized: one flattening across all grid points
	}
	res, err := loadgen.Run(loadgen.Config{
		Addr:        cl.Addr(),
		Trace:       tr,
		HTTP10:      combo.http10,
		Flat:        flat,
		Concurrency: clients,
		WarmupFrac:  0.2,
		IOTimeout:   2 * time.Minute,
	})
	if err != nil {
		return 0, 0, err
	}
	if res.Errors > 0 {
		return 0, 0, fmt.Errorf("%d request errors", res.Errors)
	}
	return res.Throughput / scale, cl.FE.Utilization(), nil
}
