package core

import (
	"runtime"
	"sync"

	"rntree/internal/pmem"
	"rntree/internal/sync2"
	"rntree/internal/tree"
)

// Undo-slot layout (the paper's "pre-defined thread-local storage" for
// split undo logs, Algorithm 3):
//
//	word 0: status — the offset of the leaf being split, or 0 when idle
//	word 1: next undo slot in the persistent chain (rooted at rootUndoOff)
//	+64   : the leaf's compacted pre-split image
//
// Algorithm 3 copies the whole leaf; the slot instead holds the pre-split
// leaf compacted — its live entries in key order, identity slot arrays and
// its persistent next pointer — persisted at imageSize(n). That is the same
// leaf to every reader and to recovery, which reach log entries only through
// a slot array, and it flushes n entries rather than the whole log area.
// The slot is sized for a full leaf; bytes past imageSize(n) are stale from
// earlier splits and are never copied back.
//
// Crash recovery walks the chain and restores any leaf whose slot is still
// armed, undoing a partial split. Undoing a *completed* split is also safe:
// the restored pre-split image contains every entry, and the new right-hand
// leaf simply becomes unreferenced garbage.
const (
	undoStatusOff = 0
	undoNextOff   = 8
	undoImageOff  = pmem.LineSize
)

// undoPool hands out undo slots to concurrent splitters, growing the
// persistent chain on demand and recycling released slots in DRAM.
type undoPool struct {
	mu       sync2.SpinLock
	free     []uint64
	slotSize uint64
}

func newUndoPool(leafSz uint64) *undoPool {
	return &undoPool{slotSize: undoImageOff + leafSz}
}

// acquire returns an idle undo slot, allocating and chaining a new one if
// necessary.
func (p *undoPool) acquire(a *pmem.Arena) (uint64, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		off := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return off, nil
	}
	p.mu.Unlock()
	// Slow path: grow the chain. The allocation and the slot-image persist
	// run outside the spin lock — the slot is thread-private until the head
	// write publishes it. Alloc parks on the heap's allocator mutex and the
	// Persist is a full modeled stall (it yields or polls, never parks);
	// under the lock either would leave every other splitter spinning
	// behind the holder for that long.
	off, err := a.Alloc(p.slotSize)
	if err != nil {
		return 0, tree.ErrFull
	}
	a.Write8(off+undoStatusOff, 0)
	// Link into the persistent chain: slot.next first, then the root head —
	// each durable before the next write depends on it. The head swing is
	// optimistic: snapshot the head, persist the slot pointing at it, then
	// publish under the lock only if no competing acquire moved the head in
	// between. Head values are distinct Alloc offsets and slots are never
	// unlinked, so a matching re-read proves the snapshot is still current.
	for {
		head := a.Read8(rootUndoOff)
		a.Write8(off+undoNextOff, head)
		a.Persist(off, pmem.LineSize)
		p.mu.Lock()
		if a.Read8(rootUndoOff) == head {
			a.Write8(rootUndoOff, off)
			p.mu.Unlock()
			// The head flush runs outside the critical section (§4.2): a
			// crash before it merely leaks the slot (the old head is still a
			// valid chain), and any later head persist by a competing
			// acquire flushes this value too.
			a.Persist(rootUndoOff, 8)
			return off, nil
		}
		p.mu.Unlock()
	}
}

// release disarms and recycles a slot.
func (p *undoPool) release(a *pmem.Arena, off uint64) {
	a.Write8(off+undoStatusOff, 0)
	a.Persist(off+undoStatusOff, 8)
	p.mu.Lock()
	p.free = append(p.free, off)
	p.mu.Unlock()
}

// forceSplit handles the corner where the log area is exhausted by orphaned
// allocations before plogs reaches the split threshold: it splits (or
// compacts) the leaf so the retrying operation can make progress.
func (t *Tree) forceSplit(m *leafMeta) error {
	m.vl.Lock()
	defer m.vl.Unlock()
	if int(m.nlogs.Load()) >= t.capacity {
		return t.splitLocked(m) //rnvet:ignore lockflush,spinblock Algorithm 3 must run under the leaf lock (the leaf is undo-logged); pmem locks never wait on tree locks, so the allocator park is bounded
	}
	return nil
}

// splitLocked implements Algorithm 3 plus the special-purpose split of
// §5.2.3. The caller holds the leaf lock. If at least half the capacity is
// active, the leaf splits in two; otherwise it is compacted in place,
// reclaiming the log entries orphaned by updates and removes.
func (t *Tree) splitLocked(m *leafMeta) error {
	m.vl.SetSplit()
	// Wait for in-flight unlocked writers: their log bytes must land before
	// we rewrite the log area. They unpin without taking locks, so this
	// cannot deadlock.
	for i := 0; m.pins.Load() != 0; i++ {
		runtime.Gosched()
	}
	var line [pmem.LineSize]byte
	t.arena.ReadLine(m.off+pslotOff, &line)
	s := decodeSlot(&line, t.capacity)

	// Gather the active records in key order before rewriting anything.
	sb := splitBufs.Get().(*splitScratch)
	defer splitBufs.Put(sb)
	keys := sb.keys[:s.n]
	vals := sb.vals[:s.n]
	for i := 0; i < s.n; i++ {
		off := kvEntryOff(m.off, int(s.idx[i]))
		keys[i] = t.arena.Read8(off)
		vals[i] = t.arena.Read8(off + 8)
	}
	next := t.arena.Read8(m.off + hdrNextOff)

	// A split in two takes its right leaf before the undo slot is armed, so
	// on a full arena it fails having persisted nothing and a retried insert
	// pays nothing either. A crash between this Alloc and the link below
	// leaks the block, as a crash between any Alloc and its publish does.
	inTwo := s.n >= t.capacity/2
	var right uint64
	if inTwo {
		var err error
		if right, err = t.arena.Alloc(t.lsize); err != nil {
			m.vl.UnsetSplit()
			return tree.ErrFull
		}
	}
	uoff, err := t.undo.acquire(t.arena)
	if err != nil {
		if inTwo {
			t.arena.Free(right, t.lsize)
		}
		m.vl.UnsetSplit()
		return err
	}
	// Undo log (Algorithm 3 line 2): the compacted pre-split image first,
	// then the status word that arms it.
	t.writeLeafImage(uoff+undoImageOff, keys, vals, next)
	t.arena.Persist(uoff+undoImageOff, imageSize(len(keys)))
	t.arena.Write8(uoff+undoStatusOff, m.off)
	t.arena.Persist(uoff+undoStatusOff, 8)
	if inTwo {
		t.splitInTwo(m, keys, vals, next, right)
	} else {
		t.compactInPlace(m, keys, vals, next)
	}
	t.undo.release(t.arena, uoff)
	m.vl.UnsetSplit() // version++ : readers and waiting writers revalidate
	return nil
}

// splitInTwo keeps the lower half in the (rewritten) old leaf and moves the
// upper half into the right-hand leaf at newOff, linked after it; next is
// the old leaf's persistent next pointer.
func (t *Tree) splitInTwo(m *leafMeta, keys, vals []uint64, next, newOff uint64) {
	n := len(keys)
	half := n / 2
	splitKey := keys[half]

	// Right leaf: entries half..n-1 compacted to logs 0..n-half-1.
	t.writeLeafImage(newOff, keys[half:], vals[half:], next)
	t.arena.Persist(newOff, imageSize(n-half))
	// Old leaf rewritten in place: lower half compacted, chained to the new
	// leaf. Safe: pins are drained and the pre-split image is undo-logged.
	t.writeLeafImage(m.off, keys[:half], vals[:half], newOff)
	t.arena.Persist(m.off, imageSize(half))

	nm := newLeafMeta(newOff, 0)
	nm.nlogs.Store(uint32(n - half))
	nm.plogs = uint32(n - half)
	nm.high.Store(m.high.Load())
	nm.next.Store(m.next.Load())
	nm.resetFps(keys[half:])
	newID := t.metas.add(nm)

	m.nlogs.Store(uint32(half))
	m.plogs = uint32(half)
	m.high.Store(splitKey)
	m.next.Store(nm)
	// The log area was rewritten to the identity layout; reinstall the
	// fingerprints before UnsetSplit publishes the new version. Readers
	// racing the split may pair new fingerprints with an old snapshot, but
	// their version validation rejects the attempt either way.
	m.resetFps(keys[:half])

	// htmTreeUpdate (Table 2): register the new leaf under its separator.
	// Done before UnsetSplit so retrying operations find the updated index.
	t.ix.Insert(splitKey, newID)
}

// compactInPlace is the special-purpose split: the active entries are fewer
// than half the capacity, so the leaf is rewritten compactly, reclaiming
// obsolete log entries without allocating a new node.
func (t *Tree) compactInPlace(m *leafMeta, keys, vals []uint64, next uint64) {
	t.writeLeafImage(m.off, keys, vals, next)
	t.arena.Persist(m.off, imageSize(len(keys)))
	m.nlogs.Store(uint32(len(keys)))
	m.plogs = uint32(len(keys))
	m.resetFps(keys)
}

// splitScratch holds reusable buffers for split/compaction so the split
// path does not allocate.
type splitScratch struct {
	keys, vals [MaxLeafCapacity]uint64
	img        []byte
}

func (sb *splitScratch) image(n uint64) []byte {
	if uint64(cap(sb.img)) < n {
		sb.img = make([]byte, n)
	}
	return sb.img[:n]
}

var splitBufs = sync.Pool{New: func() any { return new(splitScratch) }}

// writeLeafImage lays out a fully compacted leaf: logs 0..n-1 hold the
// records in key order, both slot arrays are the identity permutation, and
// the header carries the next pointer. The image is assembled in a scratch
// buffer and stored with one ranged write of imageSize(n) bytes; the log
// entries past n keep whatever they held. The caller persists the range.
//
//pmem:volatile the split/compaction caller persists the leaf image's imageSize(n) prefix in one Persist
func (t *Tree) writeLeafImage(off uint64, keys, vals []uint64, next uint64) {
	sb := splitBufs.Get().(*splitScratch)
	img := sb.image(imageSize(len(keys)))
	for i := range img {
		img[i] = 0
	}
	putW(img[hdrNextOff:], next)
	var s slotArray
	s.n = len(keys)
	for i := range keys {
		s.idx[i] = uint8(i)
		putW(img[kvOff+i*kvEntrySize:], keys[i])
		putW(img[kvOff+i*kvEntrySize+8:], vals[i])
	}
	var line [pmem.LineSize]byte
	s.encode(&line)
	copy(img[pslotOff:], line[:])
	copy(img[tslotOff:], line[:])
	t.arena.WriteRange(off, img)
	splitBufs.Put(sb)
}

func putW(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
