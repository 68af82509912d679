package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"phttp/internal/core"
)

// Concurrent hammer across nodes: parallel dispatchers mapping, promoting,
// probing, unmapping and dropping nodes never push a node's model over its
// budget, and at quiescence every node's byte and target counts match the
// entries on its LRU list, and AppendNodesFor agrees with IsMapped.
func TestMappingConcurrentInvariants(t *testing.T) {
	const (
		nodes      = 4
		goroutines = 8
		opsPer     = 5000
		capacity   = 1 << 20
		universe   = 2000
	)
	m := NewMapping(nodes, capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []core.NodeID
			for i := 0; i < opsPer; i++ {
				id := core.TargetID(rng.Intn(universe)) + 1
				n := core.NodeID(rng.Intn(nodes))
				switch rng.Intn(6) {
				case 0, 1:
					m.Map(id, int64(rng.Intn(4096))+1, n)
				case 2:
					m.Touch(id, n)
				case 3:
					m.IsMapped(id, n)
				case 4:
					buf = m.AppendNodesFor(buf[:0], id)
					for j := 1; j < len(buf); j++ {
						if buf[j] <= buf[j-1] {
							t.Errorf("AppendNodesFor = %v, not in node order", buf)
						}
					}
				case 5:
					switch {
					case rng.Intn(500) == 0:
						m.DropNode(n)
					case rng.Intn(8) == 0:
						m.Unmap(id, n)
					}
				}
				if got := m.MappedBytes(n); got > capacity {
					t.Errorf("node %d maps %d bytes, over its %d budget", n, got, capacity)
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	for n := core.NodeID(0); n < nodes; n++ {
		lru := m.perNode[n]
		ids := lru.IDs()
		if got := m.MappedTargets(n); got != len(ids) {
			t.Errorf("node %d: MappedTargets = %d, list holds %d", n, got, len(ids))
		}
		var sum int64
		for _, id := range ids {
			sum += lru.slots[lru.slot(id)].size
		}
		if got := m.MappedBytes(n); got != sum || got > capacity {
			t.Errorf("node %d: MappedBytes = %d, list sizes sum to %d (budget %d)", n, got, sum, capacity)
		}
	}
	for id := core.TargetID(1); id <= universe; id++ {
		var want []core.NodeID
		for n := core.NodeID(0); n < nodes; n++ {
			if m.IsMapped(id, n) {
				want = append(want, n)
			}
		}
		if got := m.NodesFor(id); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("NodesFor(%d) = %v, IsMapped says %v", id, got, want)
		}
	}
}

// The TestShardedLRU* checks below keep the names they had when each node's
// model was a lock-striped LRU of its own. They pin the per-node model's
// behavior as the dispatcher sees it, through the Mapping API.

func TestShardedLRUBasics(t *testing.T) {
	m := NewMapping(2, 100)
	if m.IsMapped(idA, 0) {
		t.Error("empty mapping maps idA")
	}
	m.Map(idA, 40, 0)
	if !m.IsMapped(idA, 0) || m.IsMapped(idA, 1) {
		t.Error("Map did not record idA at node 0 only")
	}
	if m.MappedBytes(0) != 40 || m.MappedTargets(0) != 1 {
		t.Errorf("Bytes=%d Len=%d, want 40/1", m.MappedBytes(0), m.MappedTargets(0))
	}
	m.Map(idA, 60, 0) // resize in place
	if m.MappedBytes(0) != 60 || m.MappedTargets(0) != 1 {
		t.Errorf("Bytes=%d Len=%d after resize, want 60/1", m.MappedBytes(0), m.MappedTargets(0))
	}
	m.Unmap(idA, 0)
	m.Unmap(idA, 0) // absent: no-op
	if m.IsMapped(idA, 0) {
		t.Error("Unmap did not remove idA")
	}
	for n := core.NodeID(0); n < 2; n++ {
		if m.MappedBytes(n) != 0 || m.MappedTargets(n) != 0 {
			t.Errorf("node %d: residue after Unmap", n)
		}
	}
}

// Each node ages its beliefs by its own recency: a Touch on one node does
// not reorder another node holding the same targets.
func TestShardedLRUEvictsGlobalLRU(t *testing.T) {
	m := NewMapping(2, 100)
	for n := core.NodeID(0); n < 2; n++ {
		m.Map(idA, 40, n)
		m.Map(idB, 40, n)
	}
	m.Touch(idA, 0) // idB is now least recent at node 0 only
	for n := core.NodeID(0); n < 2; n++ {
		m.Map(idC, 40, n)
	}
	if m.IsMapped(idB, 0) || !m.IsMapped(idA, 0) || !m.IsMapped(idC, 0) {
		t.Errorf("node 0 holds %v, want [idC idA]", m.perNode[0].IDs())
	}
	if m.IsMapped(idA, 1) || !m.IsMapped(idB, 1) || !m.IsMapped(idC, 1) {
		t.Errorf("node 1 holds %v, want [idC idB]", m.perNode[1].IDs())
	}
}

func TestShardedLRUOversizeNotCached(t *testing.T) {
	m := NewMapping(1, 100)
	m.Map(idA, 40, 0)
	m.Map(idB, 200, 0)
	if m.IsMapped(idB, 0) || len(m.NodesFor(idB)) != 0 {
		t.Error("oversize target mapped")
	}
	if !m.IsMapped(idA, 0) || m.MappedBytes(0) != 40 {
		t.Error("oversize Map disturbed existing beliefs")
	}
}

func TestShardedLRUPanicsOnNoTarget(t *testing.T) {
	for name, op := range map[string]func(*Mapping){
		"Map":      func(m *Mapping) { m.Map(core.NoTarget, 1, 0) },
		"Touch":    func(m *Mapping) { m.Touch(core.NoTarget, 0) },
		"IsMapped": func(m *Mapping) { m.IsMapped(core.NoTarget, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(NoTarget) did not panic", name)
				}
			}()
			op(NewMapping(1, 100))
		}()
	}
}

// Property: single-threaded, every node of a Mapping behaves exactly like
// its own plain string-keyed LRU for any map/touch/unmap/drop mix — same
// membership, bytes and count, and the same most-to-least-recent order.
// This is the equivalence the simulator's determinism rests on.
func TestShardedLRUMatchesLRU(t *testing.T) {
	const capacity = 1000
	f := func(ops []uint16, nodeBits uint8) bool {
		nodes := 1 + int(nodeBits%4)
		m := NewMapping(nodes, capacity)
		refs := make([]*LRU, nodes)
		for i := range refs {
			refs[i] = NewLRU(capacity)
		}
		for i, op := range ops {
			// The low two bits pick the operation and the rest pick the
			// target and size, so every operation reaches every target.
			id := core.TargetID(op/4%50) + 1
			size := int64(op/4%300) + 1
			n := core.NodeID(i % nodes)
			ref := refs[n]
			switch op % 4 {
			case 0:
				m.Map(id, size, n)
				ref.Insert(refTarget(id), size)
			case 1:
				m.Touch(id, n)
				if ref.Contains(refTarget(id)) {
					ref.Lookup(refTarget(id))
				}
			case 2:
				m.Unmap(id, n)
				ref.Remove(refTarget(id))
			case 3:
				if op%64 == 3 {
					m.DropNode(n)
					refs[n] = NewLRU(capacity)
				}
			}
			if m.MappedBytes(n) != refs[n].Bytes() || m.MappedTargets(n) != refs[n].Len() {
				return false
			}
		}
		for n, ref := range refs {
			refTargets := ref.Targets()
			ids := m.perNode[n].IDs()
			if len(refTargets) != len(ids) {
				return false
			}
			for i := range refTargets {
				if refTargets[i] != refTarget(ids[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
