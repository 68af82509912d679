package trace

import (
	"os"
	"reflect"
	"runtime"
	"testing"
)

func cacheTestConfig() SynthConfig {
	cfg := SmallSynthConfig()
	cfg.Connections = 500
	return cfg
}

func TestLoadOrGenerateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()

	cold, hit, err := LoadOrGenerate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("empty cache dir reported a hit")
	}
	warm, hit, err := LoadOrGenerate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second load missed the cache")
	}
	if !reflect.DeepEqual(cold.PHTTP.Conns, warm.PHTTP.Conns) ||
		!reflect.DeepEqual(cold.PHTTP.Catalog(), warm.PHTTP.Catalog()) {
		t.Error("cached P-HTTP trace differs from generated")
	}
	if warm.Flat == nil {
		t.Fatal("cache hit did not load the flattened form")
	}
	if !reflect.DeepEqual(cold.Flat.Conns, warm.Flat.Conns) {
		t.Error("cached flattened trace differs from generated")
	}
	// And the cached workload equals a fresh generation from scratch.
	ref := NewSynth(cfg).Generate()
	if !reflect.DeepEqual(ref.Conns, warm.PHTTP.Conns) {
		t.Error("cached trace differs from a fresh Generate")
	}
	// warm's strings alias its file mapping, which a finalizer unmaps
	// once the workload is unreachable: keep it reachable until the
	// comparison above has read them (DESIGN.md §14.3).
	runtime.KeepAlive(warm)
}

func TestLoadOrGenerateRegeneratesOnCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	if _, _, err := LoadOrGenerate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	pPath, _ := CachePaths(dir, cfg)
	data, err := os.ReadFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(pPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wl, hit, err := LoadOrGenerate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("corrupt cache entry reported a hit")
	}
	if wl.PHTTP.Requests() == 0 {
		t.Error("regenerated workload is empty")
	}
	// The rewrite must heal the cache.
	if _, hit, err := LoadOrGenerate(dir, cfg); err != nil || !hit {
		t.Errorf("cache not healed after corruption: hit=%v err=%v", hit, err)
	}
}

// TestLoadOrGenerateSharesTables pins the Flatten10 sharing semantics of
// a cache hit: the loaded flattened form adopts the P-HTTP trace's
// interner (and sizes map) rather than rebuilding equal copies.
func TestLoadOrGenerateSharesTables(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	if _, _, err := LoadOrGenerate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	wl, hit, err := LoadOrGenerate(dir, cfg)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if wl.Flat.Interner != wl.PHTTP.Interner {
		t.Error("cache hit rebuilt the flattened form's interner instead of sharing")
	}
}

// TestLoadOrGenerateRejectsMismatchedPair corrupts the pairing itself:
// a flattened file from a different workload (valid checksum, forged
// config hash) must not be adopted against the P-HTTP table.
func TestLoadOrGenerateRejectsMismatchedPair(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	if _, _, err := LoadOrGenerate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 1234
	imposter := NewSynth(other).Generate().Flatten10()
	_, fPath := CachePaths(dir, cfg)
	f, err := os.Create(fPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteBinary(f, imposter, ConfigHash(cfg)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wl, hit, err := LoadOrGenerate(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("mismatched pair reported a cache hit")
	}
	ref := NewSynth(cfg).Generate()
	if !reflect.DeepEqual(ref.Conns, wl.PHTTP.Conns) {
		t.Error("regenerated workload differs from fresh generation")
	}
}

func TestLoadOrGenerateDistinguishesConfigs(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheTestConfig()
	if _, _, err := LoadOrGenerate(dir, cfg); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed = 99
	if _, hit, err := LoadOrGenerate(dir, other); err != nil {
		t.Fatal(err)
	} else if hit {
		t.Error("different seed hit the same cache entry")
	}
}

func TestConfigHashNormalizesDefaults(t *testing.T) {
	a := cacheTestConfig()
	b := a
	b.BlockSize = DefaultBlockSize
	b.GenVersion = GenVersionBlocks
	b.MaxBatch = 4
	a.BlockSize, a.GenVersion = 0, 0
	if ConfigHash(a) != ConfigHash(b) {
		t.Error("zero defaults and explicit defaults hash differently")
	}
	c := a
	c.BlockSize = 128
	if ConfigHash(a) == ConfigHash(c) {
		t.Error("BlockSize not part of the cache key")
	}
	d := a
	d.Connections++
	if ConfigHash(a) == ConfigHash(d) {
		t.Error("Connections not part of the cache key")
	}
}

func TestWorkloadFlattenMemoizes(t *testing.T) {
	wl := NewWorkload(NewSynth(cacheTestConfig()).Generate())
	f1 := wl.Flatten()
	if f1 == nil || len(f1.Conns) != wl.PHTTP.Requests() {
		t.Fatal("Flatten did not produce the HTTP/1.0 form")
	}
	if wl.Flatten() != f1 {
		t.Error("Flatten re-derived instead of memoizing")
	}
}
