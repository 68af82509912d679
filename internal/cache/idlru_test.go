package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

// Shorthand IDs for readability: interned IDs are 1-based.
const (
	idA core.TargetID = 1
	idB core.TargetID = 2
	idC core.TargetID = 3
)

// refTarget maps a test ID to the string key used by the reference LRU.
func refTarget(id core.TargetID) core.Target {
	return core.Target(fmt.Sprintf("/t%d", id))
}

func TestIDLRUBasicInsertLookup(t *testing.T) {
	c := NewIDLRU(100)
	if c.Lookup(idA) {
		t.Error("empty cache reported a hit")
	}
	c.Insert(idA, 40)
	if !c.Lookup(idA) {
		t.Error("inserted target missed")
	}
	if c.Bytes() != 40 || c.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d, want 40/1", c.Bytes(), c.Len())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("ResetStats did not zero counters")
	}
	c.Insert(idA, 60) // resize in place
	if c.Bytes() != 60 || c.Len() != 1 {
		t.Errorf("Bytes=%d Len=%d after resize, want 60/1", c.Bytes(), c.Len())
	}
	if !c.Remove(idA) || c.Remove(idA) {
		t.Error("Remove semantics wrong")
	}
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Error("residue after Remove")
	}
}

// Touch promotes like Lookup but leaves the hit/miss counters alone: the
// mapping model promotes on every request it sees served, which is not a
// cache lookup.
func TestIDLRUTouchPromotesWithoutCounting(t *testing.T) {
	c := NewIDLRU(1000)
	c.Insert(idA, 1)
	c.Insert(idB, 1)
	c.Insert(idC, 1)
	c.Touch(idA)
	c.Touch(99) // absent: no-op
	got := c.IDs()
	want := []core.TargetID{idA, idC, idB}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Errorf("Touch counted hits=%d misses=%d, want 0/0", c.Hits(), c.Misses())
	}
}

func TestIDLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 40)
	c.Insert(idB, 40)
	c.Lookup(idA) // promote idA; idB is now LRU
	c.Insert(idC, 40)
	if !c.Contains(idA) || !c.Contains(idC) || c.Contains(idB) {
		t.Error("wrong survivors after eviction")
	}
}

func TestIDLRUOversizeTargetNotCached(t *testing.T) {
	c := NewIDLRU(100)
	c.Insert(idA, 40)
	c.Insert(idB, 200)
	if c.Contains(idB) {
		t.Error("oversize target cached")
	}
	if !c.Contains(idA) {
		t.Error("oversize insert disturbed existing entries")
	}
}

func TestIDLRUPanicsOnNoTarget(t *testing.T) {
	for name, op := range map[string]func(*IDLRU){
		"Lookup": func(c *IDLRU) { c.Lookup(core.NoTarget) },
		"Insert": func(c *IDLRU) { c.Insert(core.NoTarget, 1) },
		"Touch":  func(c *IDLRU) { c.Touch(core.NoTarget) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NoTarget) did not panic", name)
				}
			}()
			op(NewIDLRU(100))
		}()
	}
}

// Property: IDLRU behaves exactly like the string-keyed LRU for any
// lookup/insert/remove/touch mix — same membership, bytes, count, hit/miss
// counters, and most-to-least-recent order. The simulator swaps one for the
// other on this equivalence, and the dispatcher's mapping model (which
// promotes with Touch) inherits it.
func TestIDLRUMatchesLRU(t *testing.T) {
	const capacity = 1000
	f := func(ops []uint16) bool {
		idc := NewIDLRU(capacity)
		ref := NewLRU(capacity)
		var touched int64
		for _, op := range ops {
			// The low two bits pick the operation and the rest pick the
			// target and size, so every operation reaches every target.
			id := core.TargetID(op/4%50) + 1
			size := int64(op/4%300) + 1
			switch op % 4 {
			case 0:
				idc.Insert(id, size)
				ref.Insert(refTarget(id), size)
			case 1:
				if idc.Lookup(id) != ref.Lookup(refTarget(id)) {
					return false
				}
			case 2:
				if idc.Remove(id) != ref.Remove(refTarget(id)) {
					return false
				}
			case 3:
				// The reference promotes through a counted Lookup;
				// touched tracks the hits Touch leaves uncounted.
				idc.Touch(id)
				if ref.Contains(refTarget(id)) {
					ref.Lookup(refTarget(id))
					touched++
				}
			}
			if idc.Bytes() != ref.Bytes() || idc.Len() != ref.Len() {
				return false
			}
			if idc.Hits()+touched != ref.Hits() || idc.Misses() != ref.Misses() {
				return false
			}
		}
		refTargets := ref.Targets()
		ids := idc.IDs()
		if len(refTargets) != len(ids) {
			return false
		}
		for i := range refTargets {
			if refTargets[i] != refTarget(ids[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Steady state on a full cache must allocate nothing: the slab, free list
// and pos index absorb the insert/evict churn.
func TestIDLRUSteadyStateZeroAllocs(t *testing.T) {
	c := NewIDLRU(100)
	for id := core.TargetID(1); id <= 50; id++ {
		c.Insert(id, 10) // warm: grows slab and pos, fills to eviction
	}
	next := core.TargetID(1)
	avg := testing.AllocsPerRun(2000, func() {
		if !c.Lookup(next) {
			c.Insert(next, 10)
		}
		next++
		if next > 50 {
			next = 1
		}
	})
	if avg != 0 {
		t.Errorf("steady-state lookup/insert allocates %.2f allocs/op, want 0", avg)
	}
}
