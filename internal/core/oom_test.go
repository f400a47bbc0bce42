package core

import (
	"errors"
	"testing"

	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// Exhausting the arena mid-split (the right-leaf allocation fails with
// ErrOutOfMemory) must surface as the typed tree.ErrFull, leave
// the tree consistent, and be retry-safe: every acked insert stays
// readable, the same insert keeps failing identically, and non-allocating
// operations still work.
func TestInsertOOMMidSplitRetrySafe(t *testing.T) {
	// One non-growable heap segment: inserts run until a split's
	// allocation trips ErrOutOfMemory.
	a := pmem.New(pmem.Config{Size: 1 << 16, MaxSegments: 1})
	tr, err := New(a, Options{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	var acked []uint64
	var full error
	for k := uint64(1); k < 1<<14; k++ {
		if err := tr.Insert(k, k*10); err != nil {
			full = err
			break
		}
		acked = append(acked, k)
	}
	if full == nil {
		t.Fatal("arena never filled; enlarge the workload")
	}
	if !errors.Is(full, tree.ErrFull) {
		t.Fatalf("exhaustion surfaced as %v, want tree.ErrFull", full)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("tree inconsistent after mid-split OOM: %v", err)
	}
	for _, k := range acked {
		if v, ok := tr.Find(k); !ok || v != k*10 {
			t.Fatalf("acked key %d lost after OOM (ok=%v v=%d)", k, ok, v)
		}
	}
	// Retrying is stable: same typed error, no corruption, and nothing
	// persisted — the split takes its right leaf before it writes
	// anything, so a full arena fails it before any flush.
	next := acked[len(acked)-1] + 1
	for retry := 0; retry < 3; retry++ {
		before := a.Stats()
		if err := tr.Insert(next, 1); !errors.Is(err, tree.ErrFull) {
			t.Fatalf("retry %d surfaced as %v, want tree.ErrFull", retry, err)
		}
		after := a.Stats()
		if d := after.Persists - before.Persists; d != 0 {
			t.Fatalf("retry %d issued %d persists (%d lines), want 0", retry, d, after.LinesFlushed-before.LinesFlushed)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("tree inconsistent after retry: %v", err)
	}
	// Non-allocating paths still make progress: update an existing key.
	k0 := acked[0]
	if err := tr.Update(k0, 4242); err != nil {
		// An update may legitimately need a split; only a non-typed
		// failure is a bug.
		if !errors.Is(err, tree.ErrFull) {
			t.Fatalf("update failed untyped: %v", err)
		}
	} else if v, ok := tr.Find(k0); !ok || v != 4242 {
		t.Fatalf("update lost: ok=%v v=%d", ok, v)
	}
}
