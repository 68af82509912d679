package cache

import (
	"fmt"
	"sync"
	"testing"

	"phttp/internal/core"
)

// TestIDLRURefcountsPinCachedTargets wires an evictable interner into an
// IDLRU and checks the pin protocol end to end: a cached target is
// unevictable at the interner (its ID can never be recycled into an alias),
// and eviction or removal releases the pin.
func TestIDLRURefcountsPinCachedTargets(t *testing.T) {
	in := core.NewEvictableInterner(8)
	c := NewIDLRU(2 << 10)
	c.SetRefCounter(in)

	a := in.Intern("/a") // parse hold
	c.Insert(a, 1<<10)   // cache hold
	if got := in.Refs(a); got != 2 {
		t.Fatalf("refs(/a) = %d after insert, want 2 (parse + cache)", got)
	}
	// Re-inserting a resident target must not double-acquire.
	c.Insert(a, 1<<10)
	if got := in.Refs(a); got != 2 {
		t.Fatalf("refs(/a) = %d after re-insert, want 2", got)
	}
	in.Release(a) // drop the parse hold; the cache still pins it
	if got := in.Refs(a); got != 1 {
		t.Fatalf("refs(/a) = %d, want cache's 1", got)
	}

	// Capacity pressure evicts /a and must release its pin.
	b := in.Intern("/b")
	c.Insert(b, 2<<10)
	in.Release(b)
	if c.Contains(a) {
		t.Fatal("capacity pressure did not evict /a")
	}
	if got := in.Refs(a); got != 0 {
		t.Errorf("refs(/a) = %d after eviction, want 0", got)
	}
	if got := in.Refs(b); got != 1 {
		t.Errorf("refs(/b) = %d while cached, want 1", got)
	}
	if !c.Remove(b) {
		t.Fatal("Remove(/b) found nothing")
	}
	if got := in.Refs(b); got != 0 {
		t.Errorf("refs(/b) = %d after Remove, want 0", got)
	}
}

// TestIDLRUCompactShrinksPositionTable drives the cache over a wide ID
// range, removes the high IDs, and checks Compact trims the dense position
// table to the interner's post-churn bound without touching resident
// entries.
func TestIDLRUCompactShrinksPositionTable(t *testing.T) {
	c := NewIDLRU(1 << 30)
	for id := core.TargetID(1); id <= 1024; id++ {
		c.Insert(id, 1)
	}
	for id := core.TargetID(9); id <= 1024; id++ {
		c.Remove(id)
	}
	kept := c.Compact(8)
	if kept > 16 {
		t.Errorf("Compact kept a %d-slot position table for 8 resident IDs", kept)
	}
	for id := core.TargetID(1); id <= 8; id++ {
		if !c.Contains(id) {
			t.Fatalf("Compact lost resident ID %d", id)
		}
	}
	// A resident ID above the requested bound must keep the table large
	// enough to address it.
	c.Insert(500, 1)
	if kept := c.Compact(8); kept < 501 {
		t.Errorf("Compact(8) kept %d slots with ID 500 resident", kept)
	}
	if !c.Contains(500) {
		t.Error("Compact lost resident high ID")
	}
}

// TestMappingRefcountsUnderChurn checks the same pin protocol on the
// dispatcher's mapping: parallel dispatchers interning, mapping onto
// several nodes, unmapping and dropping nodes against small budgets while
// the interner compacts. At quiescence the interner's live reference count
// equals the mapped entries summed over nodes — nothing leaked, nothing
// double-released — and the table is back within its cap.
func TestMappingRefcountsUnderChurn(t *testing.T) {
	const (
		nodes      = 3
		goroutines = 4
		cap        = 256
	)
	in := core.NewEvictableInterner(cap)
	m := NewMapping(nodes, 32<<10) // 32 resident entries per node
	m.SetRefCounter(in)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4096; i++ {
				id := in.Intern(core.Target(fmt.Sprintf("/t%d", (i*7+g*13)%300)))
				n := core.NodeID((i + g) % nodes)
				m.Map(id, 1<<10, n)
				if i%3 == 0 {
					m.Map(id, 1<<10, (n+1)%nodes) // replicate
				}
				if i%7 == 0 {
					m.Unmap(id, n)
				}
				in.Release(id) // drop the parse hold
				if i%1000 == 999 {
					m.DropNode(n)
				}
				if g == 0 && i%500 == 499 {
					in.Compact()
				}
			}
		}(g)
	}
	wg.Wait()

	// Each mapped entry holds one reference, so a target's refs are the
	// nodes mapping it, and the live IDs are exactly the mapped targets.
	perID := map[core.TargetID]int{}
	for n := core.NodeID(0); n < nodes; n++ {
		for _, id := range m.perNode[n].IDs() {
			perID[id]++
		}
	}
	for id, want := range perID {
		if got := in.Refs(id); got != want {
			t.Errorf("target %d: %d interner refs vs %d mapped entries (leak or double release)", id, got, want)
		}
	}
	if live := in.Len() - in.Limbo(); live != len(perID) {
		t.Errorf("%d live interner IDs vs %d mapped targets (leaked refs)", live, len(perID))
	}
	in.Compact()
	if got := in.Len(); got > cap {
		t.Errorf("interner table %d exceeds cap %d under mapping churn", got, cap)
	}
}
