// phttp-sim runs the trace-driven cluster simulator. Every run is a
// declarative scenario (see DESIGN.md §13) compiled to a grid of simulator
// configurations and run on one grid runner:
//
//	phttp-sim -scenario fig7          # builtin scenario: Apache throughput vs cluster size
//	phttp-sim -scenario myexp.json    # scenario file
//	phttp-sim -list-scenarios         # builtin scenario names
//	phttp-sim -fig 8                  # shorthand for -scenario fig8 (3, 7 or 8)
//	phttp-sim -combo BEforward-extLARD-PHTTP -nodes 4   # one-point scenario
//
// -connections, -seed, -server and -trace-cache, when given, override the
// scenario's workload and server model. Output is a tab-separated table,
// one series per figure curve, or one result line for a one-point
// scenario.
package main

import (
	"flag"
	"fmt"
	"os"

	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/scenario"
	"phttp/internal/sim"
	"phttp/internal/trace"
)

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate: 3, 7 or 8, shorthand for -scenario figN (0 = single run)")
		combo     = flag.String("combo", "BEforward-extLARD-PHTTP", "policy/mechanism combination for a single run (see -list)")
		nodes     = flag.Int("nodes", 4, "cluster size for a single run")
		srv       = flag.String("server", "", "server model: apache or flash (overrides the scenario's)")
		conns     = flag.Int("connections", 0, "trace connections (overrides the scenario's; 0 = generator default)")
		seed      = flag.Uint64("seed", 1, "workload seed (overrides the scenario's)")
		verbose   = flag.Bool("v", false, "print per-run details (hit rate, utilizations) to stderr")
		list      = flag.Bool("list", false, "list the available policy/mechanism combinations and exit")
		plot      = flag.Bool("plot", false, "append an ASCII rendering of a cluster-size figure")
		workers   = flag.Int("workers", 0, "parallel grid workers (0 = GOMAXPROCS, 1 = serial); output is identical either way")
		cacheDir  = flag.String("trace-cache", "", "trace cache directory: load the workload (P-HTTP and flattened forms) from disk, generating and persisting on miss")
		scenFlag  = flag.String("scenario", "", "run a declarative scenario: a builtin name (see -list-scenarios) or a JSON file")
		scenList  = flag.Bool("list-scenarios", false, "list the builtin scenarios and exit")
		scenSmoke = flag.Bool("smoke", false, "validate every grid point of the scenario, then run only its first grid point on a small workload")
		fes       = flag.Int("frontends", 1, "single runs: scale-out front-end tier size (1 = the paper's single front-end)")
		feState   = flag.String("state", "local", "single runs: dispatch-state backend for the tier (local, sharded, replicated)")
		staleness = flag.Duration("staleness", 0, "single runs: replicated-state sync interval in simulated time (0 = never sync; requires -state replicated)")
	)
	flag.Parse()

	if *list {
		for _, name := range sim.ComboNames() {
			fmt.Println(name)
		}
		return
	}
	if *scenList {
		for _, name := range scenario.BuiltinNames() {
			s, err := scenario.Builtin(name)
			if err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("%-12s %s\n", name, s.Doc)
		}
		return
	}

	var spec *scenario.Spec
	var err error
	switch {
	case *scenFlag != "" && *fig != 0:
		fatalf("-fig %d is shorthand for -scenario fig%d; give one of them", *fig, *fig)
	case *scenFlag != "":
		spec, err = scenario.LoadOrBuiltin(*scenFlag)
	case *fig != 0:
		if spec, err = scenario.Builtin(fmt.Sprintf("fig%d", *fig)); err != nil {
			fatalf("unknown -fig %d (want 3, 7 or 8)", *fig)
		}
	default:
		spec = &scenario.Spec{
			Version: scenario.SpecVersion,
			Name:    *combo,
			Cluster: scenario.ClusterSpec{
				Frontends:   *fes,
				State:       *feState,
				StalenessMs: float64(staleness.Microseconds()) / 1000,
			},
			Sweep: &scenario.SweepSpec{Nodes: []int{*nodes}, Combos: []string{*combo}},
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	if *scenSmoke {
		if err := validateGrid(spec); err != nil {
			fatalf("%v", err)
		}
		shrinkForSmoke(spec)
	}

	// Explicitly set flags override the spec; unset ones leave it alone.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["connections"] && *conns > 0 {
		synth(spec).Connections = *conns
	}
	if set["seed"] {
		synth(spec).Seed = *seed
	}
	if set["server"] {
		spec.Server.Model = *srv
	}
	if *cacheDir != "" {
		spec.Workload.TraceCache = *cacheDir
	}

	runScenario(spec, *workers, *plot, *verbose, *scenSmoke)
}

// runScenario compiles the spec to its simulator grid, runs the grid, and
// prints whichever table the grid's shape calls for.
func runScenario(spec *scenario.Spec, workers int, plot, verbose, smoke bool) {
	points, err := spec.ToSimGrid()
	if err != nil {
		fatalf("%v", err)
	}
	kind, err := spec.ServerKind()
	if err != nil {
		fatalf("%v", err)
	}
	wl, hit, err := spec.LoadWorkload()
	if err != nil {
		fatalf("%v", err)
	}
	if spec.Workload.TraceCache != "" {
		fmt.Fprintf(os.Stderr, "workload: cache %s\n",
			map[bool]string{true: "hit", false: "miss (generated and persisted)"}[hit])
	}
	fmt.Fprint(os.Stderr, trace.ComputeStats(wl.PHTTP))

	cfgs := make([]sim.Config, len(points))
	for i, p := range points {
		cfgs[i] = p.Config
	}
	results, err := sim.RunGrid(cfgs, wl, workers)
	if err != nil {
		fatalf("%v", err)
	}
	if verbose {
		for _, r := range results {
			fmt.Fprintln(os.Stderr, r)
		}
	}
	if _, isLoads := spec.LoadsSweep(); isLoads {
		fmt.Printf("# Scenario %s (%s): throughput and delay vs offered load\n", spec.Name, kind)
		fmt.Print(metrics.Table("load(conns)", loadsSeries(points, results)...))
	} else if len(points) == 1 {
		fmt.Println(results[0])
	} else {
		series := groupSeries(points, results)
		fmt.Printf("# Scenario %s (%s): cluster throughput (req/s) vs nodes\n", spec.Name, kind)
		fmt.Print(metrics.Table("nodes", series...))
		if plot {
			fmt.Println()
			fmt.Print(metrics.Plot(60, 16, series...))
		}
	}
	gateSLO(spec, points, results, smoke)
}

// loadsSeries builds the offered-load table columns: throughput, mean
// delay, and the tail-quantile columns.
func loadsSeries(points []scenario.SimPoint, results []sim.Result) []*metrics.Series {
	thr := &metrics.Series{Name: "throughput(req/s)"}
	delay := &metrics.Series{Name: "delay(ms)"}
	xs := make([]float64, len(points))
	for i, p := range points {
		xs[i] = p.X
		thr.Add(xs[i], results[i].Throughput)
		delay.Add(xs[i], float64(results[i].MeanDelay)/float64(core.Millisecond))
	}
	p50, p95, p99, p999 := sim.TailSeries(xs, results)
	return []*metrics.Series{thr, delay, p50, p95, p99, p999}
}

// gateSLO evaluates an SLO-gated scenario and exits non-zero on failure.
// Smoke runs skip the evaluation: the shrunk workload's latencies are not
// the ones the objective was written against.
func gateSLO(spec *scenario.Spec, points []scenario.SimPoint, results []sim.Result, smoke bool) {
	if spec.SLO == nil {
		return
	}
	if smoke {
		fmt.Fprintf(os.Stderr, "slo: evaluation skipped in -smoke mode (shrunk workload)\n")
		return
	}
	verdicts, pass := spec.CheckSLO(points, results)
	fmt.Printf("# SLO gate: p99 <= %gms, maxViolations = %d\n", spec.SLO.P99Ms, spec.SLO.MaxViolations)
	for _, v := range verdicts {
		fmt.Println(v)
	}
	if !pass {
		fatalf("scenario %s failed its SLO gate", spec.Name)
	}
	fmt.Printf("# SLO gate: PASS (%d points)\n", len(verdicts))
}

// groupSeries folds grid results into one series per label, in first-seen
// order.
func groupSeries(points []scenario.SimPoint, results []sim.Result) []*metrics.Series {
	byLabel := make(map[string]*metrics.Series)
	var series []*metrics.Series
	for i, p := range points {
		s := byLabel[p.Label]
		if s == nil {
			s = &metrics.Series{Name: p.Label}
			byLabel[p.Label] = s
			series = append(series, s)
		}
		s.Add(p.X, results[i].Throughput)
	}
	return series
}

// validateGrid compiles the full grid and validates every point, so a
// smoke run that executes only the first point still rejects a scenario
// whose later points could not run.
func validateGrid(spec *scenario.Spec) error {
	points, err := spec.ToSimGrid()
	if err != nil {
		return err
	}
	for _, p := range points {
		if err := p.Config.Validate(); err != nil {
			return fmt.Errorf("scenario %s point (%s, %g): %w", spec.Name, p.Label, p.X, err)
		}
	}
	return nil
}

// shrinkForSmoke cuts a scenario down to one cheap grid point: the CI
// scenarios-smoke step runs every builtin through here on each push.
func shrinkForSmoke(spec *scenario.Spec) {
	if spec.Workload.TraceFile == "" {
		s := synth(spec)
		s.Connections = 400
		s.Pages = 120
		s.Objects = 260
		s.Clients = 60
	}
	if spec.Sweep != nil {
		if len(spec.Sweep.Nodes) > 1 {
			spec.Sweep.Nodes = spec.Sweep.Nodes[:1]
		}
		if len(spec.Sweep.Loads) > 1 {
			spec.Sweep.Loads = spec.Sweep.Loads[:1]
		}
	}
}

// synth returns the spec's synthetic-workload overrides, creating the
// block if the spec has none.
func synth(spec *scenario.Spec) *scenario.SynthSpec {
	if spec.Workload.Synth == nil {
		spec.Workload.Synth = &scenario.SynthSpec{}
	}
	return spec.Workload.Synth
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "phttp-sim: "+format+"\n", args...)
	os.Exit(1)
}
