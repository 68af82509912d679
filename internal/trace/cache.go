package trace

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync/atomic"
)

// The trace cache persists generated workloads (DESIGN.md §12): figure
// regeneration and benchmark sweeps ask for the same (config, BlockSize)
// workload over and over, and loading the binary format is several times
// faster than re-drawing it — even with the parallel generator. Both views
// the drivers need are cached: the structured P-HTTP trace and its
// Flatten10 HTTP/1.0 form.

// Workload pairs the P-HTTP trace with its HTTP/1.0 flattening so sweep
// drivers and load generators take whichever form a grid point needs
// without re-flattening per sweep.
type Workload struct {
	// PHTTP is the structured persistent-connection trace.
	PHTTP *Trace
	// Flat is the HTTP/1.0 form (one request per connection); nil until
	// first needed when the workload was built outside the cache.
	Flat *Trace
}

// NewWorkload wraps a trace as a workload with the flattening derived
// lazily.
func NewWorkload(tr *Trace) *Workload { return &Workload{PHTTP: tr} }

// Flatten returns the HTTP/1.0 form, deriving and memoizing it on first
// use. Not safe for concurrent first calls; prepare the workload before
// fanning out workers (sim.RunGrid does).
func (w *Workload) Flatten() *Trace {
	if w.Flat == nil {
		w.Flat = w.PHTTP.Flatten10()
	}
	return w.Flat
}

// ConfigHash fingerprints everything the deterministic draw depends on:
// every SynthConfig field (with defaults resolved, so a zero BlockSize and
// an explicit DefaultBlockSize hash identically), plus the binary format
// version. Cache entries whose recorded hash differs are regenerated.
func ConfigHash(cfg SynthConfig) uint64 {
	cfg.GenVersion = cfg.genVersion()
	cfg.BlockSize = cfg.blockSize()
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 4 // NewSynth's default
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "bin%d|%+v", BinFormatVersion, cfg)
	return h.Sum64()
}

// CachePaths returns the cache file paths for cfg under dir: the P-HTTP
// trace and the flattened HTTP/1.0 trace.
func CachePaths(dir string, cfg SynthConfig) (phttp, flat string) {
	return cachePaths(dir, ConfigHash(cfg))
}

// pathMemo remembers the last cache-entry paths built: sweeps and
// benchmark loops load the same workload config over and over, and the
// hit path budgets allocations.
var pathMemo atomic.Pointer[pathMemoEntry]

type pathMemoEntry struct {
	dir         string
	h           uint64
	phttp, flat string
}

// cachePaths builds the pair from an already-computed hash, so the hit
// path hashes the config once (hex16 instead of Sprintf for the same
// reason: the %x verbs cost a boxing allocation each).
func cachePaths(dir string, h uint64) (phttp, flat string) {
	if e := pathMemo.Load(); e != nil && e.h == h && e.dir == dir {
		return e.phttp, e.flat
	}
	hex := hex16(h)
	phttp = filepath.Join(dir, "synth-"+hex+".phttp.trace")
	flat = filepath.Join(dir, "synth-"+hex+".http10.trace")
	pathMemo.Store(&pathMemoEntry{dir: dir, h: h, phttp: phttp, flat: flat})
	return phttp, flat
}

// hex16 formats h as 16 lowercase hex digits, matching fmt's %016x.
func hex16(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// LoadOptions tunes how LoadOrGenerateWith loads cached workloads.
type LoadOptions struct {
	// NoMmap forces the copying loader even where mmap is available —
	// the benchmark rig loads both ways to report what zero-copy saves.
	NoMmap bool
}

// LoadOrGenerate returns the workload for cfg, loading both cached forms
// from dir when present and valid (checksum and config hash verified), and
// otherwise generating the workload — blocks in parallel — and writing the
// cache for next time. The second return reports a cache hit. Invalid or
// corrupt cache files are regenerated, not errors; only generation or
// write failures surface.
//
// Cache hits are memory-mapped where the platform allows (see
// ReadBinaryMapped): the returned traces alias the mapped files and pin
// the mappings for their lifetime. Concurrent misses for the same config —
// parallel benchmark jobs, a sweep racing a figure script — serialize on
// an advisory lock next to the cache entry, so the workload is generated
// once and the losers load it as a hit.
func LoadOrGenerate(dir string, cfg SynthConfig) (*Workload, bool, error) {
	return LoadOrGenerateWith(dir, cfg, LoadOptions{})
}

// LoadOrGenerateWith is LoadOrGenerate with explicit load options.
func LoadOrGenerateWith(dir string, cfg SynthConfig, opts LoadOptions) (*Workload, bool, error) {
	h := ConfigHash(cfg)
	pPath, fPath := cachePaths(dir, h)
	if wl, ok := loadPair(pPath, fPath, h, opts); ok {
		return wl, true, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("trace: cache dir: %w", err)
	}
	// Serialize generators for this entry. A lock failure degrades to the
	// pre-lock behavior — concurrent generation stays correct through
	// writeCached's atomic rename, just duplicated — so it is not an error.
	if unlock, err := lockFile(lockPath(dir, h)); err == nil {
		defer unlock()
		// Whoever held the lock may have generated the entry while we
		// waited; loading their files is still a cache hit.
		if wl, ok := loadPair(pPath, fPath, h, opts); ok {
			return wl, true, nil
		}
	}

	tr := NewSynth(cfg).Generate()
	flat := tr.Flatten10()
	if err := writeCached(pPath, tr, h); err != nil {
		return nil, false, err
	}
	if err := writeCached(fPath, flat, h); err != nil {
		return nil, false, err
	}
	return &Workload{PHTTP: tr, Flat: flat}, false, nil
}

// lockPath is the advisory generation lock for a cache entry. The file
// stays behind (empty) — removing it would race new lockers.
func lockPath(dir string, h uint64) string {
	return filepath.Join(dir, "synth-"+hex16(h)+".lock")
}

// loadPair loads both cached forms, the flattened one against the P-HTTP
// trace's table (see LoadOrGenerate). Any failure is a miss.
func loadPair(pPath, fPath string, h uint64, opts LoadOptions) (*Workload, bool) {
	p, err := loadCached(pPath, h, nil, opts)
	if err != nil {
		return nil, false
	}
	// The flattened form shares the P-HTTP trace's interner and sizes
	// table on disk as in memory (Flatten10 semantics), so it loads
	// against the already-built table instead of rebuilding one.
	f, err := loadCached(fPath, h, p, opts)
	if err != nil {
		return nil, false
	}
	return &Workload{PHTTP: p, Flat: f}, true
}

// loadCached reads one cached trace, demanding the recorded config hash.
// A non-nil donor lends its target table (see readBinaryShared).
func loadCached(path string, want uint64, donor *Trace, opts LoadOptions) (*Trace, error) {
	var (
		t   *Trace
		got uint64
	)
	switch {
	case opts.NoMmap || !mmapSupported:
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		t, got, err = readBinaryShared(data, donor)
		if err != nil {
			return nil, err
		}
	case donor != nil:
		// The donor decode only verifies this file's table against the
		// donor's and takes every retained string from the donor, so the
		// mapping can be dropped as soon as the decode returns.
		m, data, err := mapFile(path)
		if err != nil {
			return nil, err
		}
		t, got, err = readBinaryShared(data, donor)
		m.unmap()
		if err != nil {
			return nil, err
		}
	default:
		var err error
		t, got, err = ReadBinaryMapped(path)
		if err != nil {
			return nil, err
		}
	}
	if got != want {
		return nil, fmt.Errorf("trace: cache file %s has config hash %016x, want %016x", path, got, want)
	}
	return t, nil
}

// writeCached writes one trace atomically (temp file + rename), so a
// crashed or concurrent writer never leaves a torn cache entry — readers
// see the old file, the new file, or a checksum-failing temp they ignore.
func writeCached(path string, t *Trace, configHash uint64) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("trace: cache write: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := WriteBinary(tmp, t, configHash); err != nil {
		tmp.Close()
		return fmt.Errorf("trace: cache write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("trace: cache write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("trace: cache write: %w", err)
	}
	return nil
}
