package sim

import (
	"reflect"
	"sync"
	"testing"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/metrics"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// sweepTrace is a smaller workload than testTrace: the golden comparisons
// below run full sweeps several times over.
var (
	sweepTraceOnce sync.Once
	sweepTraceVal  *trace.Trace
)

func sweepTrace() *trace.Trace {
	sweepTraceOnce.Do(func() {
		cfg := trace.SmallSynthConfig()
		cfg.Connections = 3000
		sweepTraceVal = trace.NewSynth(cfg).Generate()
	})
	return sweepTraceVal
}

// delayGrid is the Figure 3 grid: one Apache node under WRR with single
// handoff, one point per offered load (connections in flight).
func delayGrid(loads ...int) []Config {
	cfgs := make([]Config, len(loads))
	for i, l := range loads {
		cfgs[i] = DefaultConfig(1, Combo{
			Name: "single-node", Policy: "wrr",
			Mechanism: core.SingleHandoff, PHTTP: true,
		})
		cfgs[i].ConnsPerNode = l
	}
	return cfgs
}

// TestParallelClusterSweepMatchesSerial is the golden determinism test: a
// parallel RunGrid must produce byte-identical output — every Result field
// and the rendered series table — to the serial path. The grid mixes the
// figure combos (P-HTTP and flattened points) with a front-end tier and a
// churn schedule, so every per-point workload and every reused-engine
// path is covered.
func TestParallelClusterSweepMatchesSerial(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	nodes := []int{1, 2, 3}
	serialSeries, serialResults, err := ClusterSweepWorkload(core.Apache, nodes, Combos(), wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	parSeries, parResults, err := ClusterSweepWorkload(core.Apache, nodes, Combos(), wl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialResults, parResults) {
		for i := range serialResults {
			if !reflect.DeepEqual(serialResults[i], parResults[i]) {
				t.Errorf("result %d differs:\nserial:   %+v\nparallel: %+v", i, serialResults[i], parResults[i])
			}
		}
		t.Fatal("parallel sweep results differ from serial")
	}
	got := metrics.Table("nodes", parSeries...)
	want := metrics.Table("nodes", serialSeries...)
	if got != want {
		t.Errorf("rendered series differ:\nserial:\n%s\nparallel:\n%s", want, got)
	}

	tier := DefaultConfig(3, Combos()[2])
	tier.Frontends, tier.FEState, tier.Staleness = 2, dstate.ModeReplicated, 50*core.Millisecond
	churn := DefaultConfig(3, Combos()[3])
	churn.Churn = []ChurnEvent{{At: 500 * core.Millisecond, Kind: ChurnCrash, Node: 1}}
	churn.RetryBudget = 2
	mixed := append([]Config{tier, churn}, delayGrid(1, 8)...)
	serial, err := RunGrid(mixed, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid(mixed, wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Error("parallel RunGrid over a mixed grid differs from serial")
	}
}

// TestParallelDelaySweepMatchesSerial pins the Figure 3 grid the same way.
func TestParallelDelaySweepMatchesSerial(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	cfgs := delayGrid(1, 8, 32)
	serial, err := RunGrid(cfgs, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid(cfgs, wl, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("parallel delay grid differs from serial:\n%+v\nvs\n%+v", par, serial)
	}
}

// TestRunRepeatedOnSharedTraceIsStable replays one shared trace many times
// concurrently (what the sweep workers do) and demands identical results —
// this would catch any hidden mutation of the shared workload.
func TestRunRepeatedOnSharedTraceIsStable(t *testing.T) {
	tr := sweepTrace()
	combo, err := ComboByName("BEforward-extLARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(DefaultConfig(3, combo), tr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]Result, 6)
	errs := make([]error, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(DefaultConfig(3, combo), tr)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], ref) {
			t.Errorf("concurrent run %d diverged:\n%+v\nvs\n%+v", i, results[i], ref)
		}
	}
}

// TestSweepPropagatesValidationErrors pins the error path: an invalid grid
// point must surface Config.Validate's message from both the serial and the
// parallel sweep, not a downstream deadlock report.
func TestSweepPropagatesValidationErrors(t *testing.T) {
	tr := sweepTrace()
	bad := []Combo{{Name: "bogus", Policy: "nonsense", Mechanism: core.SingleHandoff, PHTTP: true}}
	for _, workers := range []int{1, 4} {
		if _, _, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, bad, trace.NewWorkload(tr), workers); err == nil {
			t.Errorf("workers=%d: unknown policy did not error", workers)
		}
		if _, err := RunGrid(delayGrid(0), trace.NewWorkload(tr), workers); err == nil {
			t.Errorf("workers=%d: zero load point did not error", workers)
		}
	}
}

// TestSweepErrorReturnsNoResults pins the failure contract: a grid with
// one failing combo among valid ones must return nil series and nil
// results — never a partially-filled grid — from both the serial and the
// parallel path. (Jobs that complete after the failure flag is raised
// used to leave their slots populated.)
func TestSweepErrorReturnsNoResults(t *testing.T) {
	tr := sweepTrace()
	combos := []Combo{
		{Name: "ok", Policy: "wrr", Mechanism: core.SingleHandoff, PHTTP: true},
		{Name: "bogus", Policy: "nonsense", Mechanism: core.SingleHandoff, PHTTP: true},
	}
	for _, workers := range []int{1, 4} {
		series, results, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, combos, trace.NewWorkload(tr), workers)
		if err == nil {
			t.Fatalf("workers=%d: failing combo did not error", workers)
		}
		if series != nil || results != nil {
			t.Errorf("workers=%d: error path leaked series=%v results=%v", workers, series, results)
		}
	}
}

// TestRunJobsZeroesResultsOnError drives RunGrid directly: points that
// complete after another point fails must not leave readable results
// behind.
func TestRunJobsZeroesResultsOnError(t *testing.T) {
	wl := trace.NewWorkload(sweepTrace())
	good, err := ComboByName("WRR")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfgs := make([]Config, 6)
		for i := range cfgs {
			cfgs[i] = DefaultConfig(1, good)
		}
		cfgs[2].Combo.Policy = "nonsense" // fails validation inside the run
		results, err := RunGrid(cfgs, wl, workers)
		if err == nil {
			t.Fatalf("workers=%d: bad point did not error", workers)
		}
		if results != nil {
			t.Errorf("workers=%d: error path returned results %+v", workers, results)
		}
	}
}

// TestClusterSweepWorkloadMatchesDirect pins the cache wiring: a sweep
// over a workload loaded from the binary trace cache produces results
// identical to one over the freshly generated trace.
func TestClusterSweepWorkloadMatchesDirect(t *testing.T) {
	tr := sweepTrace()
	_, direct, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, Combos(), trace.NewWorkload(tr), 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := trace.SmallSynthConfig()
	cfg.Connections = 3000 // must mirror sweepTrace()
	dir := t.TempDir()
	if _, hit, err := trace.LoadOrGenerate(dir, cfg); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Fatal("fresh cache dir reported a hit")
	}
	// Reload so the sweep runs over traces that went through the binary
	// format, not the in-memory originals.
	wl, hit, err := trace.LoadOrGenerate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second load missed the cache")
	}
	_, cached, err := ClusterSweepWorkload(core.Apache, []int{1, 2}, Combos(), wl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, cached) {
		t.Error("sweep over cached workload diverged from direct trace")
	}
}

// TestRunInternsRawTrace covers the edge where a caller hands Run a trace
// built by hand (no loader, no interned IDs).
func TestRunInternsRawTrace(t *testing.T) {
	raw := &trace.Trace{
		Sizes: map[core.Target]int64{"/a": 1000, "/b": 2000},
		Conns: []core.Connection{
			{Batches: []core.Batch{{{Target: "/a", Size: 1000}}, {{Target: "/b", Size: 2000}}}},
			{Batches: []core.Batch{{{Target: "/a", Size: 1000}}}},
		},
	}
	combo, err := ComboByName("simple-LARD-PHTTP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1, combo)
	cfg.WarmupFrac = 0
	res, err := Run(cfg, raw)
	if err != nil {
		t.Fatal(err)
	}
	// WarmupFrac 0 measures from time zero: all three requests count.
	if res.Requests != 3 || res.Events == 0 {
		t.Errorf("raw-trace run measured nothing: %+v", res)
	}
	if raw.Interner == nil || raw.Interner.Len() != 2 {
		t.Error("Run did not intern the raw trace")
	}
}

// TestSweepEntryWrappers pins the thin public entries against the grid
// runner they wrap: ClusterSweepWorkload must equal RunGrid on the same
// configs, and RunPrepared (single prepared point) must equal Run.
func TestSweepEntryWrappers(t *testing.T) {
	tr := sweepTrace()
	wl := trace.NewWorkload(tr)
	nodes := []int{1, 2}
	combos := []Combo{Combos()[0], Combos()[3]}
	_, swept, err := ClusterSweepWorkload(core.Flash, nodes, combos, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, c := range combos {
		for _, n := range nodes {
			cfg := DefaultConfig(n, c)
			cfg.Server = server.CostsFor(core.Flash)
			cfgs = append(cfgs, cfg)
		}
	}
	grid, err := RunGrid(cfgs, wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swept, grid) {
		t.Error("ClusterSweepWorkload differs from RunGrid on the same configs")
	}

	for i, cfg := range cfgs {
		direct, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		workload := tr
		if !cfg.Combo.PHTTP {
			workload = wl.Flatten()
		}
		prepared, err := RunPrepared(cfg, workload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, prepared) || !reflect.DeepEqual(direct, grid[i]) {
			t.Errorf("point %d: Run, RunPrepared and RunGrid disagree:\ndirect:   %+v\nprepared: %+v\ngrid:     %+v",
				i, direct, prepared, grid[i])
		}
	}
}
