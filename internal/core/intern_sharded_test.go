package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// --- stripe selection ---

func TestInternerStripeSelection(t *testing.T) {
	cases := []struct {
		max, stripes, want int
	}{
		{256, 0, 1},      // small caps keep the single-stripe global LRU
		{511, 0, 1},      // just under the 2×stripeMinTargets threshold
		{512, 0, 2},      // first cap wide enough to split
		{4096, 0, 16},    // stripeMinTargets targets per stripe
		{1 << 20, 0, 64}, // clamped at maxStripes
		{1024, 3, 4},     // explicit counts round up to a power of two
		{1024, 4, 4},
		{2, 64, 2}, // clamped so every stripe has a positive budget
	}
	for _, tc := range cases {
		in := newInterner(tc.max, tc.stripes)
		if got := in.Stripes(); got != tc.want {
			t.Errorf("cap %d stripes %d: got %d stripes, want %d", tc.max, tc.stripes, got, tc.want)
		}
		if !in.Evictable() || in.Cap() != tc.max {
			t.Errorf("cap %d: mode/cap wiring broken", tc.max)
		}
	}
	if got := NewInterner().Stripes(); got != 1 {
		t.Errorf("pinned interner has %d stripes, want 1", got)
	}
}

// TestShardedStripeBudgetsSumToCap pins the global-budget invariant: a
// capped interner filled with zero-ref churn compacts back to at most the
// cap regardless of how the hash spread the targets.
func TestShardedStripeBudgetsSumToCap(t *testing.T) {
	const cap = 1000 // not divisible by 8: remainder spread over stripes
	in := newInterner(cap, 8)
	for i := 0; i < 8*cap; i++ {
		in.Release(in.Intern(Target(fmt.Sprintf("/b%d", i))))
	}
	in.Compact()
	if got := in.Len(); got > cap {
		t.Errorf("Len() = %d after churn+Compact, cap %d", got, cap)
	}
	if in.Recycles() == 0 {
		t.Error("no recycling despite churn far beyond the cap")
	}
}

// --- sharded churn against per-stripe reference models ---

// TestShardedInternerChurnAgainstModel is the multi-stripe variant of
// TestInternerChurnAgainstModel: the cap is split across four explicit
// stripes, and each stripe is compared against its own global-LRU reference
// model (stripe membership resolved through the interner's own hash, which
// the models share). Table size, limbo size and membership must agree
// stripe for stripe, no held reference may ever be aliased, and the ID
// space must stay bounded by the cap.
func TestShardedInternerChurnAgainstModel(t *testing.T) {
	const (
		cap      = 2048
		stripes  = 4
		universe = 8 * cap
	)
	ops := 1_000_000
	if testing.Short() {
		ops = 100_000
	}
	rng := rand.New(rand.NewSource(43))
	in := newInterner(cap, stripes)
	if in.Stripes() != stripes {
		t.Fatalf("built %d stripes, want %d", in.Stripes(), stripes)
	}
	models := make([]*modelInterner, stripes)
	budget := cap / stripes
	for i := range models {
		models[i] = newModel(budget)
	}
	model := func(tgt Target) *modelInterner { return models[in.stripeIndex(tgt)] }

	type hold struct {
		id TargetID
		n  int
	}
	holds := make(map[Target]*hold)
	var held []Target
	totalHolds := 0

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(10); {
		case r < 5 && totalHolds < cap/8:
			// Keeping holds far below any single stripe's budget means no
			// stripe can legitimately overflow, so the ≤-cap assertions
			// stay exact no matter how the hash distributes the holds.
			tgt := Target(fmt.Sprintf("/u%d", rng.Intn(universe)))
			id := in.Intern(tgt)
			model(tgt).intern(tgt)
			h := holds[tgt]
			if h == nil {
				holds[tgt] = &hold{id: id, n: 1}
				held = append(held, tgt)
			} else {
				if h.id != id {
					t.Fatalf("op %d: target %q re-interned as %d while held as %d (aliasing)", op, tgt, id, h.id)
				}
				h.n++
			}
			totalHolds++
		case r < 7 && len(held) > 0:
			tgt := held[rng.Intn(len(held))]
			h := holds[tgt]
			in.Acquire(h.id)
			model(tgt).intern(tgt)
			h.n++
			totalHolds++
		case len(held) > 0:
			i := rng.Intn(len(held))
			tgt := held[i]
			h := holds[tgt]
			in.Release(h.id)
			model(tgt).release(tgt)
			h.n--
			totalHolds--
			if h.n == 0 {
				delete(holds, tgt)
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
		}

		if op%10_000 == 9_999 {
			in.Compact()
			for _, m := range models {
				m.compact()
			}
		}
		if op%1_000 == 999 {
			for tgt, h := range holds {
				if got := in.Name(h.id); got != tgt {
					t.Fatalf("op %d: ID %d names %q, held for %q", op, h.id, got, tgt)
				}
			}
			wantLen, wantLimbo := 0, 0
			for _, m := range models {
				wantLen += len(m.ids)
				wantLimbo += m.limbo.Len()
			}
			if got := in.Len(); got != wantLen {
				t.Fatalf("op %d: Len() = %d, models say %d", op, got, wantLen)
			}
			if got := in.Limbo(); got != wantLimbo {
				t.Fatalf("op %d: Limbo() = %d, models say %d", op, got, wantLimbo)
			}
			if hw := int(in.HighWater()); hw > cap {
				t.Fatalf("op %d: high water %d exceeds cap %d", op, hw, cap)
			}
			for i := 0; i < 16; i++ {
				tgt := Target(fmt.Sprintf("/u%d", rng.Intn(universe)))
				_, real := in.Lookup(tgt)
				_, want := model(tgt).ids[tgt]
				if real != want {
					t.Fatalf("op %d: Lookup(%q) = %v, model says %v", op, tgt, real, want)
				}
			}
		}
	}

	for tgt, h := range holds {
		for ; h.n > 0; h.n-- {
			in.Release(h.id)
			model(tgt).release(tgt)
		}
	}
	in.Compact()
	wantLen := 0
	for _, m := range models {
		m.compact()
		wantLen += len(m.ids)
	}
	if in.Len() != wantLen || in.Len() > cap {
		t.Fatalf("after drain: Len() = %d (models %d), cap %d", in.Len(), wantLen, cap)
	}
	if in.Limbo() != in.Len() {
		t.Errorf("after drain: %d of %d entries not in limbo", in.Len()-in.Limbo(), in.Len())
	}
}

// TestShardedInternerConcurrentChurn is TestInternerConcurrentChurn at a
// cap wide enough to shard, with the acquire path in the mix: parallel
// goroutines intern, re-acquire, read back and release over a universe
// larger than the cap while compaction runs concurrently. Under -race this
// is the acceptance test for the lock-free hit path (snapshot lookup,
// CAS-acquire, recycle verification) against the stripe-locked slow path.
func TestShardedInternerConcurrentChurn(t *testing.T) {
	const (
		cap        = 2048
		stripes    = 8
		goroutines = 8
		perG       = 15_000
	)
	in := newInterner(cap, stripes)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				tgt := Target(fmt.Sprintf("/c%d", rng.Intn(4*cap)))
				id := in.Intern(tgt)
				if got := in.Name(id); got != tgt {
					t.Errorf("held ID %d resolves to %q, want %q", id, got, tgt)
					return
				}
				// A second reference through Acquire exercises the pure-CAS
				// increment; the paired releases walk both the fast (2→1)
				// and the locked (1→0, limbo push) paths.
				in.Acquire(id)
				in.Release(id)
				in.Release(id)
				if i%1000 == 999 {
					in.Compact()
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	in.Compact()
	if in.Len() > cap {
		t.Errorf("Len() = %d after churn, cap %d", in.Len(), cap)
	}
	if int(in.HighWater()) > cap+goroutines {
		// Each goroutine holds at most one target's references at a time,
		// so overflow past the summed stripe budgets is bounded by the
		// goroutine count.
		t.Errorf("HighWater() = %d, want ≤ cap+%d", in.HighWater(), goroutines)
	}
	if in.Recycles() == 0 {
		t.Error("no recycling despite universe ≫ cap")
	}
}

// TestPinnedInternerConcurrentInterning drives the pinned interner's
// lock-free hit path from parallel goroutines over one overlapping target
// set: the table must end dense and consistent — every target resolves to
// exactly one ID in 1..Len(), with Name and Lookup agreeing — no matter how
// the snapshot lookups interleave with the locked misses.
func TestPinnedInternerConcurrentInterning(t *testing.T) {
	const (
		targets    = 1000
		goroutines = 8
	)
	in := NewInterner()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*targets; i++ {
				tgt := Target(fmt.Sprintf("/p%d", rng.Intn(targets)))
				id := in.Intern(tgt)
				if id <= 0 {
					t.Errorf("Intern(%q) = %d", tgt, id)
					return
				}
				if got := in.Name(id); got != tgt {
					t.Errorf("Name(%d) = %q, want %q", id, got, tgt)
					return
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	if got := in.Len(); got != targets {
		t.Fatalf("Len() = %d, want %d", got, targets)
	}
	if got := int(in.HighWater()); got != targets {
		t.Fatalf("HighWater() = %d, want %d (duplicate slots minted)", got, targets)
	}
	seen := make(map[TargetID]Target, targets)
	for i := 0; i < targets; i++ {
		tgt := Target(fmt.Sprintf("/p%d", i))
		id, ok := in.Lookup(tgt)
		if !ok || id <= 0 || int(id) > targets {
			t.Fatalf("Lookup(%q) = %d,%v, want dense ID", tgt, id, ok)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("ID %d maps to both %q and %q", id, prev, tgt)
		}
		seen[id] = tgt
		if in.Name(id) != tgt {
			t.Fatalf("Name(%d) = %q, want %q", id, in.Name(id), tgt)
		}
	}
}
