package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"phttp/internal/core"
	"phttp/internal/metrics"
	"phttp/internal/server"
	"phttp/internal/simcore"
	"phttp/internal/trace"
)

// Grids are embarrassingly parallel: every grid point is an independent
// simulation with its own policy, caches and dispatch state, sharing only
// the read-only workload. RunGrid fans the points out over worker
// goroutines and writes each Result into the point's own slot, so results
// come back in config order — and, because each run is deterministic in
// isolation, with exactly the values a serial loop produces.

// RunGrid simulates every config over the workload and returns the results
// in config order. Each point runs on the P-HTTP trace or, when its combo
// is not P-HTTP, on the workload's HTTP/1.0 flattening; both are prepared
// (interned, flattened once) before any worker starts. workers caps the
// pool (values below 1 mean GOMAXPROCS, 1 runs serially); the results do
// not depend on it. On error no results are returned, and the error is
// that of the lowest-indexed failing point among those that ran.
func RunGrid(cfgs []Config, wl *trace.Workload, workers int) ([]Result, error) {
	tr := wl.PHTTP
	if tr.Interner == nil {
		tr.EnsureIDs()
	}
	var flat *trace.Trace
	for _, cfg := range cfgs {
		if !cfg.Combo.PHTTP {
			flat = wl.Flatten()
			if flat.Interner == nil {
				flat.EnsureIDs()
			}
			break
		}
	}
	workload := func(cfg Config) *trace.Trace {
		if cfg.Combo.PHTTP {
			return tr
		}
		return flat
	}

	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]Result, len(cfgs))
	if workers <= 1 {
		eng := simcore.NewEngine()
		for i, cfg := range cfgs {
			res, err := runOnEngine(cfg, workload(cfg), eng)
			if err != nil {
				return nil, err
			}
			results[i] = res
		}
		return results, nil
	}
	var (
		wg     sync.WaitGroup
		failed atomic.Bool
	)
	// Per-slot errors keep the reported failure stable — the lowest-slot
	// error among points that ran wins, not whichever goroutine lost a
	// race — while the failed flag cancels points not yet started so a bad
	// grid does not grind through every point first.
	errs := make([]error, len(cfgs))
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one engine: its event heap and body slab
			// grow to the largest grid point it runs and are reused for
			// the rest. Strictly worker-local — sharing slabs across
			// workers (e.g. through a sync.Pool) would bounce their cache
			// lines between cores for no benefit.
			eng := simcore.NewEngine()
			for i := range idx {
				if failed.Load() {
					continue
				}
				res, err := runOnEngine(cfgs[i], workload(cfgs[i]), eng)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ClusterSweepWorkload runs every combo over the given cluster sizes with
// the given server cost model — the grid behind Figure 7 (Apache) and
// Figure 8 (Flash) — on RunGrid. It returns one throughput series per
// combo, keyed by node count, and the results in (combo, nodes) order.
func ClusterSweepWorkload(kind core.ServerKind, nodes []int, combos []Combo, wl *trace.Workload, workers int) ([]*metrics.Series, []Result, error) {
	cfgs := make([]Config, 0, len(combos)*len(nodes))
	for _, combo := range combos {
		for _, n := range nodes {
			cfg := DefaultConfig(n, combo)
			cfg.Server = server.CostsFor(kind)
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := RunGrid(cfgs, wl, workers)
	if err != nil {
		return nil, nil, err
	}
	series := make([]*metrics.Series, 0, len(combos))
	for ci, combo := range combos {
		s := &metrics.Series{Name: combo.Name}
		for ni, n := range nodes {
			s.Add(float64(n), results[ci*len(nodes)+ni].Throughput)
		}
		series = append(series, s)
	}
	return series, results, nil
}

// TailSeries folds per-point latency summaries into the p50/p95/p99/p999
// columns (milliseconds) of a delay table, keyed by each result's slot in
// xs. phttp-sim prints them next to the mean-delay column of an
// offered-load table.
func TailSeries(xs []float64, results []Result) (p50, p95, p99, p999 *metrics.Series) {
	ms := func(m core.Micros) float64 { return float64(m) / float64(core.Millisecond) }
	p50 = &metrics.Series{Name: "p50(ms)"}
	p95 = &metrics.Series{Name: "p95(ms)"}
	p99 = &metrics.Series{Name: "p99(ms)"}
	p999 = &metrics.Series{Name: "p999(ms)"}
	for i, r := range results {
		p50.Add(xs[i], ms(r.Latency.P50))
		p95.Add(xs[i], ms(r.Latency.P95))
		p99.Add(xs[i], ms(r.Latency.P99))
		p999.Add(xs[i], ms(r.Latency.P999))
	}
	return p50, p95, p99, p999
}
