package core

import (
	"reflect"
	"testing"
)

// TestAcquireLiveAndLimbo covers the two non-panicking Acquire paths: the
// lock-free refcount bump on a live entry, and the locked 0→1 revival of
// a limbo entry (which must unlink it from the LRU list).
func TestAcquireLiveAndLimbo(t *testing.T) {
	in := NewEvictableInterner(8)
	a := in.Intern("/a")
	in.Acquire(a) // live: lock-free bump
	if got := in.Refs(a); got != 2 {
		t.Fatalf("Refs after Intern+Acquire = %d, want 2", got)
	}
	in.Release(a)
	in.Release(a)
	if got := in.Refs(a); got != 0 {
		t.Fatalf("Refs after draining = %d, want 0 (limbo)", got)
	}
	in.Acquire(a) // limbo: locked revival
	if got := in.Refs(a); got != 1 {
		t.Fatalf("Refs after revival = %d, want 1", got)
	}
	if got := in.Name(a); got != "/a" {
		t.Fatalf("Name after revival = %q", got)
	}
	in.Release(a)
}

// TestAcquirePanicsOnUnassigned pins the protocol: acquiring an ID the
// interner never handed out is a driver bug.
func TestAcquirePanicsOnUnassigned(t *testing.T) {
	in := NewEvictableInterner(8)
	in.Intern("/a")
	defer func() {
		if recover() == nil {
			t.Error("Acquire of a never-assigned ID did not panic")
		}
	}()
	in.Acquire(99)
}

// TestAppendNames covers the bulk ID→name accessor on both interner
// shapes: a bulk-loaded pinned table (the zero-copy trace load, name→ID
// map still deferred) and a capped table with a dead slot, which must
// appear as an empty string to keep positions aligned with IDs.
func TestAppendNames(t *testing.T) {
	names := []Target{"/x", "/y", "/z"}
	pinned := NewInternerFromNames(append([]Target(nil), names...))
	if got := pinned.AppendNames(nil); !reflect.DeepEqual(got, names) {
		t.Errorf("pinned AppendNames = %v, want %v", got, names)
	}
	// Appending onto an existing prefix must keep it and not reallocate
	// when capacity suffices.
	dst := make([]Target, 1, 8)
	dst[0] = "prefix"
	got := pinned.AppendNames(dst)
	if len(got) != 4 || got[0] != "prefix" || got[3] != "/z" {
		t.Errorf("AppendNames onto prefix = %v", got)
	}

	capped := NewEvictableInterner(1)
	a := capped.Intern("/a")
	b := capped.Intern("/b") // overflow while /a is referenced
	capped.Release(a)
	capped.Release(b)
	capped.Acquire(b) // keep /b live so Compact kills /a, not both
	capped.Compact()
	want := []Target{"", "/b"} // dead slot holds position, empty name
	if got := capped.AppendNames(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("capped AppendNames = %v, want %v", got, want)
	}
	capped.Release(b)
}

// TestRefsDiagnostics covers the Refs accessor across interner modes and
// slot states.
func TestRefsDiagnostics(t *testing.T) {
	pinned := NewInterner()
	id := pinned.Intern("/a")
	if got := pinned.Refs(id); got != 0 {
		t.Errorf("pinned Refs = %d, want 0", got)
	}
	in := NewEvictableInterner(1)
	a := in.Intern("/a")
	b := in.Intern("/b")
	if got := in.Refs(a); got != 1 {
		t.Errorf("live Refs = %d, want 1", got)
	}
	if got := in.Refs(0); got != 0 {
		t.Errorf("Refs(0) = %d, want 0", got)
	}
	if got := in.Refs(99); got != 0 {
		t.Errorf("out-of-range Refs = %d, want 0", got)
	}
	in.Release(a)
	in.Compact() // /a zero-ref and over cap: killed, slot dead
	if got := in.Refs(a); got != -1 {
		t.Errorf("dead Refs = %d, want -1", got)
	}
	in.Release(b)
}

// TestNamePanicsOnDead pins Name's recycled-ID panic.
func TestNamePanicsOnDead(t *testing.T) {
	in := NewEvictableInterner(1)
	a := in.Intern("/a")
	b := in.Intern("/b")
	in.Release(a)
	in.Compact()
	defer func() {
		if recover() == nil {
			t.Error("Name of a dead ID did not panic")
		}
		in.Release(b)
	}()
	in.Name(a)
}

// TestEvictableInternerRejectsZeroCap pins the constructor contract.
func TestEvictableInternerRejectsZeroCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-cap evictable interner did not panic")
		}
	}()
	NewEvictableInterner(0)
}
