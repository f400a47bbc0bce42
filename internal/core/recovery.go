package core

import (
	"fmt"

	"rntree/internal/htm"
	"rntree/internal/inner"
	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// Close performs a clean shutdown: it persists the transient per-leaf
// bookkeeping (nlogs, plogs, min key) into the leaf headers along with the
// transient slot arrays, and arms the clean-shutdown flag. A tree closed
// this way can be reopened with the cheap Reconstruct path; a tree that
// crashed needs CrashRecover (§5.4 and Figure 7 distinguish the two).
// The tree must be quiescent (no concurrent operations); Close checks and
// panics on misuse, because silently snapshotting a tree with writers in
// flight would certify a torn image as a clean shutdown.
func (t *Tree) Close() {
	t.assertQuiescent()
	for m := t.head; m != nil; m = m.next.Load() {
		var line [pmem.LineSize]byte
		t.arena.ReadLine(m.off+pslotOff, &line)
		s := decodeSlot(&line, t.capacity)
		minKey := uint64(0)
		if s.n > 0 {
			minKey = t.arena.Read8(kvEntryOff(m.off, int(s.idx[0])))
		}
		t.arena.Write8(m.off+hdrNlogsOff, uint64(m.nlogs.Load()))
		t.arena.Write8(m.off+hdrPlogsOff, uint64(m.plogs))
		t.arena.Write8(m.off+hdrMinOff, minKey)
		t.arena.Persist(m.off, pmem.LineSize)
		// The transient slot array is normally never flushed; make it valid
		// for the fast reopen path.
		t.arena.WriteLine(m.off+tslotOff, &line)
		t.arena.Persist(m.off+tslotOff, pmem.LineSize)
	}
	t.arena.Write8(rootCleanOff, 1)
	t.arena.Persist(rootCleanOff, 8)
}

// assertQuiescent panics if any operation is still in flight: a held or
// splitting leaf lock, a writer pinned in its unlocked persist window, or a
// held HTM fallback lock. It is a cheap DRAM-only walk of the leaf chain —
// a best-effort misuse detector, not a synchronization barrier: callers
// must still stop their own writers before Close.
func (t *Tree) assertQuiescent() {
	if t.region.FallbackHeld() {
		panic("core: Close called with an operation in flight (HTM fallback lock held); quiesce all writers before Close")
	}
	for m := t.head; m != nil; m = m.next.Load() {
		switch {
		case m.vl.IsLocked():
			panic(fmt.Sprintf("core: Close called with an operation in flight (leaf @%#x locked); quiesce all writers before Close", m.off))
		case m.vl.IsSplitting():
			panic(fmt.Sprintf("core: Close called with a split in flight (leaf @%#x splitting); quiesce all writers before Close", m.off))
		case m.pins.Load() != 0:
			panic(fmt.Sprintf("core: Close called with a writer in its persist window (leaf @%#x pinned); quiesce all writers before Close", m.off))
		}
	}
}

// WasCleanShutdown reports whether the arena holds a cleanly closed tree.
func WasCleanShutdown(a *pmem.Arena) bool {
	return a.Read8(rootMagicOff) == rootMagic && a.Read8(rootCleanOff) != 0
}

// Open reopens a tree from an arena, choosing Reconstruct after a clean
// shutdown and CrashRecover otherwise.
func Open(a *pmem.Arena, opts Options) (*Tree, error) {
	if WasCleanShutdown(a) {
		return Reconstruct(a, opts)
	}
	return CrashRecover(a, opts)
}

// Reconstruct is the fast reopen path after a clean shutdown: it walks the
// persistent leaf chain, trusts the per-leaf bookkeeping persisted by Close,
// and rebuilds the volatile internal nodes (§5.4 "reconstruction").
func Reconstruct(a *pmem.Arena, opts Options) (*Tree, error) {
	t, err := openCommon(a, opts)
	if err != nil {
		return nil, err
	}
	if a.Read8(rootCleanOff) == 0 {
		return nil, fmt.Errorf("core: arena was not cleanly closed; use CrashRecover")
	}
	t.useHeaderMin = true // Close persisted each leaf's min key for us
	err = t.walkChain(func(m *leafMeta, s *slotArray) {
		m.nlogs.Store(uint32(a.Read8(m.off + hdrNlogsOff)))
		m.plogs = uint32(a.Read8(m.off + hdrPlogsOff))
	})
	if err != nil {
		return nil, err
	}
	// Disarm the clean flag: from now on only a new Close certifies the
	// arena clean again.
	a.Write8(rootCleanOff, 0)
	a.Persist(rootCleanOff, 8)
	return t, nil
}

// CrashRecover reopens a tree after a crash: it replays the undo-log chain
// to roll back interrupted splits, then walks the leaf chain recomputing the
// transient bookkeeping from the persistent slot arrays and logs — the
// paper's "crash recovery", measurably slower than reconstruction
// (Figure 7).
func CrashRecover(a *pmem.Arena, opts Options) (*Tree, error) {
	t, err := openCommon(a, opts)
	if err != nil {
		return nil, err
	}
	// Roll back interrupted splits.
	for _, uoff := range t.undo.free {
		leafOff := a.Read8(uoff + undoStatusOff)
		if leafOff != 0 {
			if !a.Allocated(leafOff, t.lsize) {
				return nil, fmt.Errorf("core: undo slot %#x is armed for leaf %#x, which the allocator never handed out", uoff, leafOff)
			}
			curNext := a.Read8(leafOff + hdrNextOff)
			// The slot holds a compacted image (split.go): restore its live
			// prefix, sized by its own slot line, so the stale tail of a
			// slot that once held a larger image is never copied back.
			var line [pmem.LineSize]byte
			a.ReadLine(uoff+undoImageOff+pslotOff, &line)
			s := decodeSlot(&line, t.capacity)
			img := make([]byte, imageSize(s.n))
			a.ReadRange(uoff+undoImageOff, uint64(len(img)), img)
			a.WriteRange(leafOff, img)
			a.Persist(leafOff, uint64(len(img)))
			// If the interrupted split had already chained in its new
			// right-hand leaf, the restored image just unlinked it: the
			// pre-split next pointer differs from the one we overwrote.
			// The right leaf was fully persisted before the chain write
			// (Algorithm 3's ordering), so it is a well-formed orphan —
			// return it to the allocator instead of leaking it.
			if oldNext := a.Read8(leafOff + hdrNextOff); curNext != oldNext && curNext != pmem.NullOff {
				if !a.Allocated(curNext, t.lsize) {
					return nil, fmt.Errorf("core: leaf %#x points at %#x, which the allocator never handed out", leafOff, curNext)
				}
				a.Free(curNext, t.lsize)
			}
			a.Write8(uoff+undoStatusOff, 0)
			a.Persist(uoff+undoStatusOff, 8)
		}
	}
	err = t.walkChain(func(m *leafMeta, s *slotArray) {
		// Recompute nlogs: "scan the slot array to find the max index of
		// log entries" (§6.2.6). Orphaned allocations past the last
		// referenced slot are discarded.
		nlogs := uint32(0)
		for i := 0; i < s.n; i++ {
			if uint32(s.idx[i])+1 > nlogs {
				nlogs = uint32(s.idx[i]) + 1
			}
		}
		m.nlogs.Store(nlogs)
		m.plogs = nlogs
		// Rebuild the transient slot array from the persistent one.
		var line [pmem.LineSize]byte
		a.ReadLine(m.off+pslotOff, &line)
		a.WriteLine(m.off+tslotOff, &line) //pmem:volatile the transient slot array is a volatile mirror, rebuilt from pslot on every recovery
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// openCommon validates the root line and the undo-slot chain and prepares an
// in-memory shell: no leaves yet, every undo slot in the pool.
func openCommon(a *pmem.Arena, opts Options) (*Tree, error) {
	if a.Read8(rootMagicOff) != rootMagic {
		return nil, fmt.Errorf("core: arena does not contain an RNTree (bad magic)")
	}
	opts.LeafCapacity = int(a.Read8(rootCapOff))
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	t := &Tree{
		arena:    a,
		region:   htm.NewRegion(a, opts.HTM),
		metas:    newMetaTable(),
		capacity: opts.LeafCapacity,
		lsize:    imageSize(opts.LeafCapacity),
		dual:     opts.DualSlot,
	}
	t.undo = newUndoPool(t.lsize)
	var err error
	if t.undo.free, err = t.undoChain(); err != nil {
		return nil, err
	}
	return t, nil
}

// undoChain returns the persistent undo slots in chain order. Like every
// pointer recovery reads from the media, a slot pointer is followed only if
// it is a block the allocator could have handed out, and the walk is bounded
// by the number of slots the allocated space can hold, so a garbage or
// cyclic chain is an error, not a panic or a hang.
func (t *Tree) undoChain() ([]uint64, error) {
	a := t.arena
	var slots []uint64
	budget := a.Bump() / t.undo.slotSize
	for uoff := a.Read8(rootUndoOff); uoff != pmem.NullOff; uoff = a.Read8(uoff + undoNextOff) {
		if !a.Allocated(uoff, t.undo.slotSize) {
			return nil, fmt.Errorf("core: undo-chain pointer %#x is not a block the allocator handed out", uoff)
		}
		if uint64(len(slots)) == budget {
			return nil, fmt.Errorf("core: undo chain does not terminate")
		}
		slots = append(slots, uoff)
	}
	return slots, nil
}

// walkChain scans the persistent leaf chain, creating leafMetas, wiring the
// DRAM next pointers and key bounds, and collecting the index pairs. The
// per-leaf callback fills in tree-state-specific bookkeeping. Leaf pointers
// are checked and the walk bounded the way undoChain's are.
func (t *Tree) walkChain(fill func(m *leafMeta, s *slotArray)) error {
	a := t.arena
	var pairs []inner.Pair
	var prev *leafMeta
	var prevIndexed *leafMeta
	budget := a.Bump() / t.lsize
	for off := a.Read8(rootHeadOff); off != pmem.NullOff; off = a.Read8(off + hdrNextOff) {
		if !a.Allocated(off, t.lsize) {
			return fmt.Errorf("core: leaf pointer %#x is not a block the allocator handed out", off)
		}
		if budget == 0 {
			return fmt.Errorf("core: leaf chain does not terminate")
		}
		budget--
		m := newLeafMeta(off, 0)
		t.metas.add(m)
		if t.head == nil {
			t.head = m
		}
		if prev != nil {
			prev.next.Store(m)
		}
		var line [pmem.LineSize]byte
		a.ReadLine(off+pslotOff, &line)
		s := decodeSlot(&line, t.capacity)
		fill(m, &s)
		// Rebuild the DRAM fingerprint filter from the persistent slot
		// array and logs — the filter is volatile and every reopen path
		// (Reconstruct, CrashRecover, BulkLoad) funnels through here.
		for i := 0; i < s.n; i++ {
			e := int(s.idx[i])
			m.setFp(e, fpHash(a.Read8(kvEntryOff(off, e))))
		}
		if s.n > 0 {
			// Reconstruction trusts the min key Close persisted in the
			// header (§5.4: "retrieves the greatest key in each leaf");
			// crash recovery re-derives it from the slot array and logs.
			var minKey uint64
			if t.useHeaderMin {
				minKey = a.Read8(off + hdrMinOff)
			} else {
				minKey = a.Read8(kvEntryOff(off, int(s.idx[0])))
			}
			pairs = append(pairs, inner.Pair{Sep: minKey, Leaf: m.id})
			// The previous indexed leaf's range ends where this one begins.
			if prevIndexed != nil {
				prevIndexed.high.Store(minKey)
			}
			// Empty leaves between prevIndexed and m are unreachable from
			// the index; bound them identically so scans stay consistent.
			for e := prevIndexed; e != nil && e != m; e = e.next.Load() {
				if e != prevIndexed {
					e.high.Store(minKey)
				}
			}
			prevIndexed = m
		}
		prev = m
	}
	if t.head == nil {
		return fmt.Errorf("core: the root line points at no head leaf")
	}
	if len(pairs) == 0 {
		// Fully empty tree: index the head leaf.
		pairs = append(pairs, inner.Pair{Sep: 0, Leaf: t.head.id})
	}
	t.ix = inner.NewFromSorted(pairs)
	return nil
}

var _ tree.Index = (*Tree)(nil)
