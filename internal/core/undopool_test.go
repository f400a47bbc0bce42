package core

import (
	"sync"
	"testing"

	"rntree/internal/pmem"
)

// walkUndoChain returns every slot offset reachable from the persistent
// chain head, in chain order.
func walkUndoChain(a *pmem.Arena) []uint64 {
	var offs []uint64
	for off := a.Read8(rootUndoOff); off != pmem.NullOff; off = a.Read8(off + undoNextOff) {
		offs = append(offs, off)
	}
	return offs
}

// TestUndoPoolConcurrentGrow is the regression test for the optimistic head
// swing in undoPool.acquire: the allocation and slot persist moved outside
// the p.mu spin lock (Alloc parks on the allocator mutex, which rnvet's
// spinblock pass flags, and the persist is a whole modeled stall), so the
// chain linkage now races and must
// retry when a competing acquire moves the head. Every slot handed out must
// be distinct and every slot ever allocated must stay reachable from
// rootUndoOff.
func TestUndoPoolConcurrentGrow(t *testing.T) {
	tr := newTree(t, Options{}, 16)
	a, p := tr.arena, tr.undo

	const goroutines = 8
	const perG = 25 // every acquire takes the grow path (nothing is released)
	var mu sync.Mutex
	got := make(map[uint64]int)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				off, err := p.acquire(a)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				mu.Lock()
				got[off]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if len(got) != goroutines*perG {
		t.Fatalf("expected %d distinct slots, got %d", goroutines*perG, len(got))
	}
	for off, n := range got {
		if n != 1 {
			t.Fatalf("slot %#x handed out %d times", off, n)
		}
	}
	chain := walkUndoChain(a)
	if len(chain) != len(got) {
		t.Fatalf("persistent chain has %d slots, want %d (a racing head swing lost a slot)", len(chain), len(got))
	}
	for _, off := range chain {
		if got[off] != 1 {
			t.Fatalf("chain contains slot %#x that was never handed out", off)
		}
		if st := a.Read8(off + undoStatusOff); st != 0 {
			t.Fatalf("fresh slot %#x armed with status %#x", off, st)
		}
	}

	// Recycled slots must come from the free list without growing the chain.
	for off := range got {
		p.release(a, off)
	}
	for i := 0; i < goroutines*perG; i++ {
		off, err := p.acquire(a)
		if err != nil {
			t.Fatalf("reacquire: %v", err)
		}
		if got[off] != 1 {
			t.Fatalf("reacquire returned unknown slot %#x", off)
		}
	}
	if n := len(walkUndoChain(a)); n != len(got) {
		t.Fatalf("chain grew to %d slots on reacquire, want %d", n, len(got))
	}
}
