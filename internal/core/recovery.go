package core

import (
	"fmt"

	"rntree/internal/htm"
	"rntree/internal/inner"
	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// Close performs a clean shutdown: it persists each leaf's min key into its
// header along with the transient slot arrays, and arms the clean-shutdown
// flag. A tree closed this way can be reopened with the cheap Reconstruct
// path; a tree that crashed needs CrashRecover (§5.4 and Figure 7
// distinguish the two).
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
// persistent leaf chain, trusts the min keys persisted by Close, and
// rebuilds the volatile internal nodes (§5.4 "reconstruction").
func Reconstruct(a *pmem.Arena, opts Options) (*Tree, error) {
	t, err := openCommon(a, opts)
	if err != nil {
		return nil, err
	}
	if a.Read8(rootCleanOff) == 0 {
		return nil, fmt.Errorf("core: arena was not cleanly closed; use CrashRecover")
	}
	t.useHeaderMin = true // Close persisted each leaf's min key for us
	if err := t.walkChain(false); err != nil {
		return nil, err
	}
	// Disarm the clean flag: from now on only a new Close certifies the
	// arena clean again.
	a.Write8(rootCleanOff, 0)
	a.Persist(rootCleanOff, 8)
	return t, nil
}

// CrashRecover reopens a tree after a crash: it walks the leaf chain,
// trimming the one overlap an interrupted split can leave (trimOverlap),
// rebuilding the transient slot arrays and deriving the volatile state from
// the persistent slot arrays and logs — the paper's "crash recovery",
// measurably slower than reconstruction (Figure 7).
func CrashRecover(a *pmem.Arena, opts Options) (*Tree, error) {
	t, err := openCommon(a, opts)
	if err != nil {
		return nil, err
	}
	if err := t.walkChain(true); err != nil {
		return nil, err
	}
	return t, nil
}

// openCommon validates the root line and prepares an in-memory shell with
// no leaves yet.
func openCommon(a *pmem.Arena, opts Options) (*Tree, error) {
	if a.Read8(rootMagicOff) != rootMagic {
		return nil, fmt.Errorf("core: arena does not contain an RNTree (bad magic)")
	}
	if w := a.Read8(rootResvOff); w != 0 {
		return nil, fmt.Errorf("core: reserved root word holds %#x, want 0", w)
	}
	opts.LeafCapacity = int(a.Read8(rootCapOff))
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	return &Tree{
		arena:    a,
		region:   htm.NewRegion(a, opts.HTM),
		metas:    newMetaTable(),
		capacity: opts.LeafCapacity,
		lsize:    imageSize(opts.LeafCapacity),
		dual:     opts.DualSlot,
	}, nil
}

// readSlot decodes the persistent slot array of the leaf at off and reads
// its keys into keys. Unlike a racing reader's decodeSlot, recovery does
// not clamp: a count past capacity-1, a log index past the capacity or keys
// that do not strictly increase is garbage, and an error.
func (t *Tree) readSlot(off uint64, keys *[MaxLeafCapacity]uint64) (slotArray, error) {
	var line [pmem.LineSize]byte
	t.arena.ReadLine(off+pslotOff, &line)
	s := decodeSlot(&line, t.capacity)
	if int(line[0]) != s.n {
		return s, fmt.Errorf("core: leaf %#x: slot count %d exceeds %d", off, line[0], t.capacity-1)
	}
	for i := 0; i < s.n; i++ {
		if int(line[1+i]) >= t.capacity {
			return s, fmt.Errorf("core: leaf %#x: slot %d names log %d of %d", off, i, line[1+i], t.capacity)
		}
		keys[i] = t.arena.Read8(kvEntryOff(off, int(s.idx[i])))
		if i > 0 && keys[i] <= keys[i-1] {
			return s, fmt.Errorf("core: leaf %#x: slot %d key %d does not follow %d", off, i, keys[i], keys[i-1])
		}
	}
	return s, nil
}

// trimOverlap repairs the one crash state a split leaves behind (split.go):
// the right leaf linked after the leaf at off, whose slot array s was not
// yet trimmed, so the upper half sits in both. It drops from s every key at
// or above the successor's smallest key and persists the trimmed line; on
// any other image it changes nothing. The successor pointer is checked
// before it is read, and the successor's own slot array is validated when
// the walk reaches it.
func (t *Tree) trimOverlap(off uint64, s *slotArray, keys *[MaxLeafCapacity]uint64) error {
	a := t.arena
	next := a.Read8(off + hdrNextOff)
	if next == pmem.NullOff || s.n == 0 {
		return nil
	}
	if !a.Allocated(next, t.lsize) {
		return fmt.Errorf("core: leaf pointer %#x is not a block the allocator handed out", next)
	}
	var line [pmem.LineSize]byte
	a.ReadLine(next+pslotOff, &line)
	succ := decodeSlot(&line, t.capacity)
	if succ.n == 0 {
		return nil
	}
	succMin := a.Read8(kvEntryOff(next, int(succ.idx[0])))
	keep := s.n
	for keep > 0 && keys[keep-1] >= succMin {
		keep--
	}
	if keep < s.n {
		s.n = keep
		s.encode(&line)
		a.WriteLine(off+pslotOff, &line)
		a.Persist(off+pslotOff, pmem.LineSize)
	}
	return nil
}

// walkChain scans the persistent leaf chain, creating leafMetas with their
// free-entry masks and fingerprints, wiring the DRAM next pointers and key
// bounds, and collecting the index pairs; after a crash it also trims split
// overlaps (trimOverlap) and rebuilds each transient slot array from the
// persistent one, which Close or BulkLoad otherwise left equal. Like every
// pointer recovery reads from the media, a leaf pointer is followed only if
// it is a block the allocator could have handed out, and the walk is
// bounded by the number of leaves the allocated space can hold, so a
// garbage or cyclic chain is an error, not a panic or a hang.
func (t *Tree) walkChain(crashed bool) error {
	a := t.arena
	var pairs []inner.Pair
	var prev *leafMeta
	var prevIndexed *leafMeta
	var keys [MaxLeafCapacity]uint64
	budget := a.Bump() / t.lsize
	for off := a.Read8(rootHeadOff); off != pmem.NullOff; off = a.Read8(off + hdrNextOff) {
		if !a.Allocated(off, t.lsize) {
			return fmt.Errorf("core: leaf pointer %#x is not a block the allocator handed out", off)
		}
		if budget == 0 {
			return fmt.Errorf("core: leaf chain does not terminate")
		}
		budget--
		s, err := t.readSlot(off, &keys)
		if err == nil && crashed {
			err = t.trimOverlap(off, &s, &keys)
		}
		if err != nil {
			return err
		}
		if crashed {
			var line [pmem.LineSize]byte
			a.ReadLine(off+pslotOff, &line)
			a.WriteLine(off+tslotOff, &line) //pmem:volatile the transient slot array is a volatile mirror, rebuilt from pslot on every recovery
		}
		m := newLeafMeta(off, 0)
		t.metas.add(m)
		if t.head == nil {
			t.head = m
		}
		if prev != nil {
			prev.next.Store(m)
		}
		// Rebuild the DRAM free-entry mask and fingerprint filter from the
		// persistent slot array and logs — both are volatile and every
		// reopen path (Reconstruct, CrashRecover, BulkLoad) funnels through
		// here.
		t.compactInPlace(m, &s)
		for i := 0; i < s.n; i++ {
			m.setFp(int(s.idx[i]), fpHash(keys[i]))
		}
		if s.n > 0 {
			// Reconstruction trusts the min key Close persisted in the
			// header (§5.4: "retrieves the greatest key in each leaf");
			// crash recovery re-derives it from the slot array and logs.
			minKey := keys[0]
			if t.useHeaderMin {
				minKey = a.Read8(off + hdrMinOff)
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
