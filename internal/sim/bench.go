package sim

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"phttp/internal/core"
	"phttp/internal/dstate"
	"phttp/internal/server"
	"phttp/internal/trace"
)

// The benchmark harness behind `make bench` / `phttp-bench -sim-bench`: it
// measures the reference Figure 7 sweep and emits the numbers BENCH_sim.json
// records, so every change to the simulator hot path leaves a trajectory
// (ns/event, allocs/event, simulated events/sec, sweep wall-clock) that can
// be compared across commits on the same machine.

// EnvInfo stamps the execution environment onto each report section:
// a parallel_speedup of ~1.0 means nothing without knowing the run had
// one core, so every section is self-describing instead of inheriting a
// single top-level gomaxprocs.
type EnvInfo struct {
	// GoMaxProcs is runtime.GOMAXPROCS(0) at measurement time; NumCPU is
	// the machine's core count (nproc).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"nproc,omitempty"`
}

func env() EnvInfo {
	return EnvInfo{GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// BenchPoint is one measured execution of the reference sweep.
type BenchPoint struct {
	EnvInfo
	// WallMs is the sweep's wall-clock time in milliseconds.
	WallMs float64 `json:"wall_ms"`
	// Mallocs is the number of heap allocations during the sweep.
	Mallocs uint64 `json:"mallocs"`
	// Events and Requests are summed over all grid points.
	Events   int64 `json:"events"`
	Requests int64 `json:"requests"`
	// NsPerEvent and AllocsPerEvent are WallMs and Mallocs normalized by
	// Events — the per-event cost of the simulator across the whole sweep
	// (workers included, so parallel points divide wall-clock across
	// cores).
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// EventsPerSec is the aggregate simulated-event throughput.
	EventsPerSec float64 `json:"events_per_sec"`
}

func newBenchPoint(wall time.Duration, mallocs uint64, events, requests int64) BenchPoint {
	p := BenchPoint{
		WallMs:   float64(wall.Milliseconds()),
		Mallocs:  mallocs,
		Events:   events,
		Requests: requests,
	}
	if events > 0 {
		p.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		p.AllocsPerEvent = float64(mallocs) / float64(events)
	}
	if wall > 0 {
		p.EventsPerSec = float64(events) / wall.Seconds()
	}
	return p
}

// BenchConfig describes the reference sweep. The defaults are the fixed
// reference every BENCH_sim.json entry uses, so numbers stay comparable
// across commits.
type BenchConfig struct {
	Server      core.ServerKind `json:"-"`
	ServerName  string          `json:"server"`
	Nodes       []int           `json:"nodes"`
	Connections int             `json:"connections"`
	Seed        uint64          `json:"seed"`
	Combos      int             `json:"combos"`
}

// DefaultBenchConfig is the reference sweep: all seven Figure 7 combos over
// 1-6 Apache nodes on a 12000-connection synthetic trace.
func DefaultBenchConfig() BenchConfig {
	return BenchConfig{
		Server:      core.Apache,
		ServerName:  core.Apache.String(),
		Nodes:       []int{1, 2, 3, 4, 5, 6},
		Connections: 12000,
		Seed:        1,
		Combos:      len(Combos()),
	}
}

// TraceGenReport captures sweep-startup cost: how long the reference
// workload takes to draw serially, to draw across GOMAXPROCS workers
// (identical output — the generator's per-block RNG streams carry the
// determinism), and to come out of the on-disk binary trace cache. Startup
// used to be invisible in the trajectory while per-event cost fell 4.5x;
// this records it per commit alongside the sweep numbers.
type TraceGenReport struct {
	EnvInfo
	// SerialMs and ParallelMs time Synth.GenerateParallel(1) and (0);
	// FlattenMs times the Flatten10 derivation — regenerating the sweep
	// workload from scratch costs SerialMs + FlattenMs.
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	FlattenMs  float64 `json:"flatten_ms"`
	// CacheColdMs is LoadOrGenerate into an empty cache directory
	// (generation plus flattening plus writing both cached forms);
	// CacheHitMs is the subsequent load of the same workload, flattened
	// form included.
	CacheColdMs float64 `json:"cache_cold_ms"`
	CacheHitMs  float64 `json:"cache_hit_ms"`
	// CacheHitSpeedup is (SerialMs+FlattenMs)/CacheHitMs: how much faster
	// a sweep acquires its workload (both forms) from the cache than by
	// regenerating it.
	CacheHitSpeedup float64 `json:"cache_hit_speedup_vs_regen"`
	// ParallelSpeedup is SerialMs/ParallelMs (≈1 on one CPU).
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// CacheHitAllocs is the heap allocations of one mapped cache hit (both
	// forms), measured with the collector parked so ambient GC assists are
	// excluded. CacheHitCopyMs / CacheHitCopyAllocs measure the copying
	// loader (NoMmap) with the catalog map and the interner's name→ID map
	// forced — the fully materialized load every cache hit paid before the
	// zero-copy path. CacheHitAllocReduction is copy ÷ mapped, the factor
	// the mmap acceptance gate tracks (≥10×).
	CacheHitAllocs         float64 `json:"cache_hit_allocs"`
	CacheHitCopyMs         float64 `json:"cache_hit_copy_ms"`
	CacheHitCopyAllocs     float64 `json:"cache_hit_copy_allocs"`
	CacheHitAllocReduction float64 `json:"cache_hit_alloc_reduction"`
}

// ScalingPoint is one worker count of the multi-core scaling curve.
type ScalingPoint struct {
	Workers      int     `json:"workers"`
	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Speedup is wall-clock relative to the 1-worker run of the same curve.
	Speedup float64 `json:"speedup_vs_1_worker"`
}

// ScalingReport is the `scaling` section of BENCH_sim.json: the reference
// sweep at every worker count 1..GOMAXPROCS. On a single-core machine the
// curve would be meaningless (every point times the same serial schedule),
// so the section records an explicit skip marker instead of fake numbers.
type ScalingReport struct {
	EnvInfo
	// Skipped is "skipped_nproc=1" when the environment had one core and
	// no curve was measured; empty otherwise.
	Skipped string         `json:"skipped,omitempty"`
	Points  []ScalingPoint `json:"points,omitempty"`
}

// MultiCore reports whether the section holds a measured multi-core curve
// (as opposed to a skip marker) — the curves phttp-bench refuses to
// clobber from a single-core run without -force.
func (s *ScalingReport) MultiCore() bool {
	return s != nil && s.Skipped == "" && len(s.Points) > 0 && s.GoMaxProcs > 1
}

// MeasureScaling runs the reference sweep at worker counts 1..GOMAXPROCS
// over a prepared trace and returns the scaling curve. With one core it
// returns only the skip marker; callers decide whether that may replace a
// recorded multi-core curve.
func MeasureScaling(cfg BenchConfig, tr *trace.Trace) (ScalingReport, error) {
	rep := ScalingReport{EnvInfo: env()}
	if rep.GoMaxProcs <= 1 {
		rep.Skipped = "skipped_nproc=1"
		return rep, nil
	}
	var base float64
	for w := 1; w <= rep.GoMaxProcs; w++ {
		p, _, err := measureSweep(cfg, tr, w)
		if err != nil {
			return rep, err
		}
		sp := ScalingPoint{Workers: w, WallMs: p.WallMs, EventsPerSec: p.EventsPerSec}
		if w == 1 {
			base = p.WallMs
		}
		if p.WallMs > 0 {
			sp.Speedup = base / p.WallMs
		}
		rep.Points = append(rep.Points, sp)
	}
	return rep, nil
}

// LatencyComboPoint is one combo's tail digest at the reference sweep's
// largest cluster size, in milliseconds.
type LatencyComboPoint struct {
	Combo  string  `json:"combo"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	// NodeQueueP99Ms is the per-back-end queue-delay p99 (CPU and disk
	// FIFO waiting, post-warmup) from a dedicated run of the same
	// configuration with RecordNodeDelays on — the load-imbalance
	// signature: WRR's hot nodes spike here while locality-aware dispatch
	// stays flat. Index is the back-end node ID.
	NodeQueueP99Ms []float64 `json:"node_queue_p99_ms,omitempty"`
}

// LatencyReport is the `latency` section of BENCH_sim.json: per-combo
// tail quantiles from the serial reference sweep. Virtual-time delays
// are deterministic per (workload, config), so unlike the wall-clock
// sections these numbers are machine-independent — they move only when
// the simulated system's behavior moves.
type LatencyReport struct {
	Nodes  int                 `json:"nodes"`
	Combos []LatencyComboPoint `json:"combos"`
}

func maxNodes(cfg BenchConfig) int {
	m := 0
	for _, n := range cfg.Nodes {
		if n > m {
			m = n
		}
	}
	return m
}

func micsToMs(v core.Micros) float64 { return float64(v) / float64(core.Millisecond) }

func latencyReport(cfg BenchConfig, results []Result) *LatencyReport {
	rep := &LatencyReport{Nodes: maxNodes(cfg)}
	for _, r := range results {
		if r.Nodes != rep.Nodes {
			continue
		}
		rep.Combos = append(rep.Combos, LatencyComboPoint{
			Combo:  r.Combo,
			P50Ms:  micsToMs(r.Latency.P50),
			P95Ms:  micsToMs(r.Latency.P95),
			P99Ms:  micsToMs(r.Latency.P99),
			P999Ms: micsToMs(r.Latency.P999),
			MaxMs:  micsToMs(r.Latency.Max),
		})
	}
	return rep
}

// attachNodeDelays fills each latency combo point's per-node queue-delay
// digest by re-running the combo's largest-cluster configuration with the
// per-node histograms enabled. A separate pass so the measured sweep's
// per-event cost is not polluted by bookkeeping the reference run does not
// carry; virtual-time delays are deterministic, so the re-run reproduces
// the measured run's behavior exactly.
func attachNodeDelays(cfg BenchConfig, tr *trace.Trace, rep *LatencyReport) error {
	byName := make(map[string]Combo)
	for _, c := range Combos() {
		byName[c.Name] = c
	}
	for i := range rep.Combos {
		combo, ok := byName[rep.Combos[i].Combo]
		if !ok {
			continue
		}
		c := DefaultConfig(rep.Nodes, combo)
		c.Server = server.CostsFor(cfg.Server)
		c.RecordNodeDelays = true
		workload := tr
		if !combo.PHTTP {
			workload = tr.Flatten10()
		}
		r, err := Run(c, workload)
		if err != nil {
			return err
		}
		p99s := make([]float64, len(r.NodeDelays))
		for n, d := range r.NodeDelays {
			p99s[n] = micsToMs(d.P99)
		}
		rep.Combos[i].NodeQueueP99Ms = p99s
	}
	return nil
}

// LocalityPoint is one (tier size, state backend, staleness) configuration
// of the front-end-tier locality sweep.
type LocalityPoint struct {
	// Frontends is the tier size; State is the dispatch-state backend
	// ("local", "sharded", "replicated").
	Frontends int    `json:"frontends"`
	State     string `json:"state"`
	// StalenessMs is the replicated sync interval in simulated
	// milliseconds; 0 means the replicas never sync (the
	// infinite-staleness endpoint of the freshness axis). Omitted for
	// local and sharded backends, whose state has a single owner.
	StalenessMs float64 `json:"staleness_ms,omitempty"`
	// HitRate is the aggregate back-end cache hit rate; HitRateDrop is
	// the baseline (one front-end, local state) hit rate minus this
	// point's — the locality lost to splitting the dispatcher.
	HitRate     float64 `json:"hit_rate"`
	HitRateDrop float64 `json:"hit_rate_drop_vs_local"`
	// Throughput and MeanDelayMs are the run's primary service metrics.
	Throughput  float64 `json:"throughput_rps"`
	MeanDelayMs float64 `json:"mean_delay_ms"`
}

// LocalityCurve is one combo's locality-degradation-vs-freshness curve:
// the single-front-end baseline first, then sharded tiers of growing
// size, then replicated tiers from fresh to never-synced.
type LocalityCurve struct {
	Combo  string          `json:"combo"`
	Policy string          `json:"policy"`
	Points []LocalityPoint `json:"points"`
}

// LocalityReport is the `locality` section of BENCH_sim.json: how much
// cache locality each mapping policy loses as the front-end tier scales
// out, against the freshness of the shared dispatch state. Virtual-time
// results — deterministic per (workload, config), machine-independent
// like the latency section.
type LocalityReport struct {
	// Nodes is the back-end cluster size every point runs (the reference
	// sweep's largest).
	Nodes int `json:"nodes"`
	// Curves holds one entry per mapping combo.
	Curves []LocalityCurve `json:"curves"`
}

// localityFrontends are the sharded tier sizes swept; the largest is also
// the replicated tier size for the staleness axis.
var localityFrontends = []int{2, 4}

// localityStaleness is the replicated freshness axis, fresh to stale; the
// terminal 0 is "never sync" (fully independent replicas).
var localityStaleness = []core.Micros{
	10 * core.Millisecond,
	100 * core.Millisecond,
	1000 * core.Millisecond,
	0,
}

// MeasureLocality runs the front-end-tier locality sweep for every
// mapping combo of the reference set (WRR carries no dispatch state worth
// sharing, so it is skipped): baseline, sharded ownership at growing tier
// sizes, and full replication across the staleness axis.
func MeasureLocality(cfg BenchConfig, tr *trace.Trace) (*LocalityReport, error) {
	rep := &LocalityReport{Nodes: maxNodes(cfg)}
	run := func(combo Combo, fes int, mode dstate.Mode, staleness core.Micros) (Result, error) {
		c := DefaultConfig(rep.Nodes, combo)
		c.Server = server.CostsFor(cfg.Server)
		c.Frontends = fes
		c.FEState = mode
		c.Staleness = staleness
		workload := tr
		if !combo.PHTTP {
			workload = tr.Flatten10()
		}
		return Run(c, workload)
	}
	point := func(r Result, fes int, mode dstate.Mode, staleness core.Micros, base Result) LocalityPoint {
		return LocalityPoint{
			Frontends:   fes,
			State:       mode.String(),
			StalenessMs: micsToMs(staleness),
			HitRate:     r.HitRate,
			HitRateDrop: base.HitRate - r.HitRate,
			Throughput:  r.Throughput,
			MeanDelayMs: micsToMs(r.MeanDelay),
		}
	}
	for _, combo := range Combos() {
		if combo.Policy == "wrr" {
			continue
		}
		base, err := run(combo, 1, dstate.ModeLocal, 0)
		if err != nil {
			return nil, err
		}
		curve := LocalityCurve{
			Combo:  combo.Name,
			Policy: base.Policy,
			Points: []LocalityPoint{point(base, 1, dstate.ModeLocal, 0, base)},
		}
		for _, fes := range localityFrontends {
			r, err := run(combo, fes, dstate.ModeSharded, 0)
			if err != nil {
				return nil, err
			}
			curve.Points = append(curve.Points, point(r, fes, dstate.ModeSharded, 0, base))
		}
		replFEs := localityFrontends[len(localityFrontends)-1]
		for _, st := range localityStaleness {
			r, err := run(combo, replFEs, dstate.ModeReplicated, st)
			if err != nil {
				return nil, err
			}
			curve.Points = append(curve.Points, point(r, replFEs, dstate.ModeReplicated, st, base))
		}
		rep.Curves = append(rep.Curves, curve)
	}
	return rep, nil
}

// BenchReport is the payload of BENCH_sim.json. Every section carries its
// own gomaxprocs/nproc stamp (EnvInfo) rather than one top-level value, so
// a section measured on one core is self-describing even when another —
// e.g. a preserved multi-core scaling curve — was not.
type BenchReport struct {
	Reference BenchConfig `json:"reference"`
	// Serial runs the sweep on one worker; Parallel on GOMAXPROCS.
	Serial   BenchPoint `json:"serial"`
	Parallel BenchPoint `json:"parallel"`
	// TraceGen times workload construction (sweep startup).
	TraceGen TraceGenReport `json:"trace_gen"`
	// Latency is the per-combo tail digest of the serial sweep
	// (deterministic: moves only with simulated behavior, not hardware).
	Latency *LatencyReport `json:"latency,omitempty"`
	// Locality is the front-end-tier locality-vs-freshness sweep
	// (deterministic, like Latency).
	Locality *LocalityReport `json:"locality,omitempty"`
	// Scaling is the multi-core worker-count curve (or its skip marker);
	// nil when the run did not ask for one (phttp-bench -scaling).
	Scaling *ScalingReport `json:"scaling,omitempty"`
	// Baseline, when set, is the recorded pre-optimization measurement of
	// the same reference sweep (serial; the baseline code had no parallel
	// path), and the Speedup fields compare against it.
	Baseline             *BenchPoint `json:"baseline,omitempty"`
	SpeedupWallClock     float64     `json:"speedup_wall_clock,omitempty"`
	PerRunEventsPerSec   float64     `json:"per_run_events_per_sec_gain,omitempty"`
	PerEventAllocsRatio  float64     `json:"alloc_reduction_factor,omitempty"`
	BaselineDescription  string      `json:"baseline_description,omitempty"`
	MeasuredAtUnixMillis int64       `json:"measured_at_unix_ms"`
}

// measureSweep runs the reference sweep once with the given worker count,
// returning the measurement and the sweep's results (for the latency
// section — the histograms record during the measured run, so their cost
// is part of the numbers, as it is in production).
//
//phttp:wallclock benchmark harness measures real elapsed time
func measureSweep(cfg BenchConfig, tr *trace.Trace, workers int) (BenchPoint, []Result, error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	_, results, err := ClusterSweepWorkload(cfg.Server, cfg.Nodes, Combos(), trace.NewWorkload(tr), workers)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return BenchPoint{}, nil, err
	}
	var events, requests int64
	for _, r := range results {
		events += r.Events
		requests += r.Requests
	}
	p := newBenchPoint(wall, ms1.Mallocs-ms0.Mallocs, events, requests)
	p.EnvInfo = env()
	return p, results, nil
}

// measureAllocs returns the steady-state heap allocations of one call to
// f, averaged over a few runs with the collector parked: f's transient
// garbage (a reference workload materializes ~18 MB per load) otherwise
// triggers GC assists whose bookkeeping allocations land in the caller's
// count and drown the signal being measured.
func measureAllocs(n int, f func() error) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	if err := f(); err != nil { // warm caches and lazy init off the books
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// measureTraceGen times the four ways the reference workload can be
// constructed. The cache measurements use a throwaway directory so the
// bench never mixes with (or pollutes) a real trace cache.
//
//phttp:wallclock benchmark harness measures real elapsed time
func measureTraceGen(tcfg trace.SynthConfig) (TraceGenReport, *trace.Trace, error) {
	var g TraceGenReport
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	// Each phase starts from a collected heap: a single-sample timing
	// right after the previous phase grew the heap mostly measures the
	// GC scanning that phase's garbage.
	timed := func(f func() error) (float64, error) {
		runtime.GC()
		start := time.Now()
		err := f()
		return ms(time.Since(start)), err
	}

	var err error
	if g.SerialMs, err = timed(func() error {
		trace.NewSynth(tcfg).GenerateParallel(1)
		return nil
	}); err != nil {
		return g, nil, err
	}
	var tr *trace.Trace
	if g.ParallelMs, err = timed(func() error {
		tr = trace.NewSynth(tcfg).GenerateParallel(0)
		return nil
	}); err != nil {
		return g, nil, err
	}
	if g.FlattenMs, err = timed(func() error {
		tr.Flatten10()
		return nil
	}); err != nil {
		return g, nil, err
	}

	dir, err := os.MkdirTemp("", "phttp-bench-cache-")
	if err != nil {
		return g, nil, err
	}
	defer os.RemoveAll(dir)
	if g.CacheColdMs, err = timed(func() error {
		_, _, err := trace.LoadOrGenerate(dir, tcfg)
		return err
	}); err != nil {
		return g, nil, err
	}
	// Best of three: the hit path is short enough that one stray GC or
	// page-cache miss would dominate a single sample.
	for i := 0; i < 3; i++ {
		hitMs, err := timed(func() error {
			_, hit, err := trace.LoadOrGenerate(dir, tcfg)
			if err == nil && !hit {
				return fmt.Errorf("sim: bench cache did not hit on reload")
			}
			return err
		})
		if err != nil {
			return g, nil, err
		}
		if g.CacheHitMs == 0 || hitMs < g.CacheHitMs {
			g.CacheHitMs = hitMs
		}
	}

	// The copying loader, with both deferred tables forced (the catalog
	// map and the interner's name→ID map), is what every cache hit cost
	// before the zero-copy path — the honest comparator for the alloc
	// reduction the mmap gate tracks.
	loadCopied := func() error {
		wl, hit, err := trace.LoadOrGenerateWith(dir, tcfg, trace.LoadOptions{NoMmap: true})
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("sim: bench cache did not hit on reload")
		}
		wl.PHTTP.Catalog()
		wl.PHTTP.Interner.Lookup("/")
		return nil
	}
	for i := 0; i < 3; i++ {
		copyMs, err := timed(loadCopied)
		if err != nil {
			return g, nil, err
		}
		if g.CacheHitCopyMs == 0 || copyMs < g.CacheHitCopyMs {
			g.CacheHitCopyMs = copyMs
		}
	}
	if g.CacheHitAllocs, err = measureAllocs(5, func() error {
		_, hit, err := trace.LoadOrGenerate(dir, tcfg)
		if err == nil && !hit {
			return fmt.Errorf("sim: bench cache did not hit on reload")
		}
		return err
	}); err != nil {
		return g, nil, err
	}
	if g.CacheHitCopyAllocs, err = measureAllocs(5, loadCopied); err != nil {
		return g, nil, err
	}
	if g.CacheHitAllocs > 0 {
		g.CacheHitAllocReduction = g.CacheHitCopyAllocs / g.CacheHitAllocs
	}

	if g.CacheHitMs > 0 {
		g.CacheHitSpeedup = (g.SerialMs + g.FlattenMs) / g.CacheHitMs
	}
	if g.ParallelMs > 0 {
		g.ParallelSpeedup = g.SerialMs / g.ParallelMs
	}
	g.EnvInfo = env()
	return g, tr, nil
}

// RunBench generates the reference trace (timing serial, parallel and
// cached construction), measures the sweep serially and in parallel, and
// returns the report (without baseline comparison; callers attach recorded
// baselines via AttachBaseline).
func RunBench(cfg BenchConfig) (BenchReport, error) {
	tcfg := trace.DefaultSynthConfig()
	tcfg.Seed = cfg.Seed
	tcfg.Connections = cfg.Connections

	rep := BenchReport{
		Reference: cfg,
		//phttp:wallclock report timestamp, not simulation input
		MeasuredAtUnixMillis: time.Now().UnixMilli(),
	}
	var (
		tr  *trace.Trace
		err error
	)
	if rep.TraceGen, tr, err = measureTraceGen(tcfg); err != nil {
		return rep, err
	}
	var serialResults []Result
	if rep.Serial, serialResults, err = measureSweep(cfg, tr, 1); err != nil {
		return rep, err
	}
	rep.Latency = latencyReport(cfg, serialResults)
	if err = attachNodeDelays(cfg, tr, rep.Latency); err != nil {
		return rep, err
	}
	if rep.Locality, err = MeasureLocality(cfg, tr); err != nil {
		return rep, err
	}
	if rep.Parallel, _, err = measureSweep(cfg, tr, 0); err != nil {
		return rep, err
	}
	return rep, nil
}

// AttachBaseline records a pre-optimization measurement and derives the
// speedup metrics: wall-clock of the baseline (serial, the only mode it
// had) against the current parallel sweep, and per-run simulated-event
// throughput serial-vs-serial so the win cannot come from parallelism
// alone. A baseline with unknown event count (the pre-refactor engine did
// not report one) may pass Events=0 and have it filled from the current
// serial run — valid because the refactor is result- and event-count
// preserving (the golden tests pin this).
func (r *BenchReport) AttachBaseline(b BenchPoint, description string) {
	if b.Events == 0 {
		b = newBenchPoint(time.Duration(b.WallMs)*time.Millisecond, b.Mallocs,
			r.Serial.Events, r.Serial.Requests)
	}
	r.Baseline = &b
	r.BaselineDescription = description
	if r.Parallel.WallMs > 0 {
		r.SpeedupWallClock = b.WallMs / r.Parallel.WallMs
	}
	if b.EventsPerSec > 0 {
		r.PerRunEventsPerSec = r.Serial.EventsPerSec / b.EventsPerSec
	}
	if r.Serial.AllocsPerEvent > 0 {
		r.PerEventAllocsRatio = b.AllocsPerEvent / r.Serial.AllocsPerEvent
	}
}
