package core

import (
	"runtime"
	"sync"

	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// Structural changes commit the way a modify does (§4.2): bytes go only into
// log entries no persisted slot array references, they are persisted, and
// one slot-array line published by htmLeafUpdate and persisted in one line
// is the commit point. That needs no undo log:
//
//   - A §5.2.3 compaction frees, in the DRAM free-entry mask, every log
//     entry the persistent slot array does not reference: no entry moves
//     and nothing is persisted (compactInPlace).
//   - A split in two persists the right leaf's image, then the old leaf's
//     next pointer (the link), then a slot array holding only the lower
//     half, and compacts the old leaf: 3 persists plus the right leaf's
//     allocation. A crash between the link and the trimmed slot array
//     leaves the upper half in both leaves; CrashRecover drops from every
//     leaf the keys at or above its successor's smallest key, which repairs
//     exactly that state (trimOverlap, recovery.go).
//
// Both run under the leaf lock with SplitBit set and pins drained, so no
// reader or writer sees the intermediate slot arrays.

// forceSplit handles the corner where orphaned allocations take the last
// free entry before a publish triggers the proactive split: it splits (or
// compacts) the leaf so the retrying operation can make progress.
func (t *Tree) forceSplit(m *leafMeta) error {
	m.vl.Lock()
	defer m.vl.Unlock()
	if m.free.Load() == 0 {
		return t.splitLocked(m) //rnvet:ignore lockflush,spinblock a split commits through the slot line, so it must run under the leaf lock like any modify; pmem locks never wait on tree locks, so the allocator park is bounded
	}
	return nil
}

// splitLocked implements Algorithm 3 plus the special-purpose split of
// §5.2.3. The caller holds the leaf lock. If more than half the capacity is
// active, the leaf splits in two; otherwise it is compacted in place,
// freeing the log entries orphaned by updates and removes. A leaf exactly
// half live (a split half, a bulk-loaded leaf) thus never splits on
// updates alone.
func (t *Tree) splitLocked(m *leafMeta) error {
	m.vl.SetSplit()
	// Wait for in-flight unlocked writers: each holds an entry allocated
	// from the mask this compaction replaces, and its log bytes must land
	// before the entry is freed for reuse. They unpin without taking locks,
	// so this cannot deadlock.
	for i := 0; m.pins.Load() != 0; i++ {
		runtime.Gosched()
	}
	var line [pmem.LineSize]byte
	t.arena.ReadLine(m.off+pslotOff, &line)
	s := decodeSlot(&line, t.capacity)
	if s.n > t.capacity/2 {
		// The right leaf comes first, so on a full arena the split fails
		// having persisted nothing and a retried insert pays nothing either.
		// A crash before the link leaves the block unreached, so the next
		// open's walk does not report it and it is free space again.
		right, err := t.arena.Alloc(t.lsize)
		if err != nil {
			m.vl.UnsetSplit()
			return tree.ErrFull
		}
		s = t.splitInTwo(m, &s, right)
	}
	t.compactInPlace(m, &s)
	m.vl.UnsetSplit() // version++ : readers and waiting writers revalidate
	return nil
}

// splitInTwo moves the upper half of the leaf's entries s into the right
// leaf at newOff, links it after the old leaf and publishes the old leaf's
// slot array trimmed to the lower half, which it returns for compaction.
func (t *Tree) splitInTwo(m *leafMeta, s *slotArray, newOff uint64) slotArray {
	half := s.n / 2
	sb := splitBufs.Get().(*splitScratch)
	defer splitBufs.Put(sb)
	keys := sb.keys[:s.n-half]
	vals := sb.vals[:s.n-half]
	for i := range keys {
		off := kvEntryOff(m.off, int(s.idx[half+i]))
		keys[i] = t.arena.Read8(off)
		vals[i] = t.arena.Read8(off + 8)
	}
	splitKey := keys[0]

	// Right leaf: entries half..n-1 compacted to logs 0..n-half-1.
	rs := t.writeLeafImage(newOff, keys, vals, t.arena.Read8(m.off+hdrNextOff))
	t.arena.Persist(newOff, imageSize(len(keys)))
	t.arena.Write8(m.off+hdrNextOff, newOff)
	t.arena.Persist(m.off+hdrNextOff, pmem.WordSize)
	lower := *s
	lower.n = half
	t.publishSlot(m, &lower)

	nm := newLeafMeta(newOff, 0)
	t.compactInPlace(nm, &rs)
	nm.high.Store(m.high.Load())
	nm.next.Store(m.next.Load())
	nm.resetFps(keys)
	newID := t.metas.add(nm)
	m.high.Store(splitKey)
	m.next.Store(nm)
	// htmTreeUpdate (Table 2): register the new leaf under its separator.
	// Done before UnsetSplit so retrying operations find the updated index.
	t.ix.Insert(splitKey, newID)
	return lower
}

// compactInPlace is the special-purpose split (§5.2.3), and the last step
// of a split in two: it sets m's free-entry mask to the log entries that
// no slot of s, the leaf's persistent slot array, references. Nothing moves
// or is persisted: a freed entry is rewritten only after allocEntry hands
// it out again, and referenced only by a publish after its persist. The
// caller holds SplitBit with pins drained, so no writer holds an entry of
// the old mask, and the version bump at UnsetSplit fails every reader whose
// snapshot named a freed entry. Recovery and a split's new right leaf call
// it on a leaf no other goroutine reaches yet.
func (t *Tree) compactInPlace(m *leafMeta, s *slotArray) {
	free := ^uint64(0) >> (MaxLeafCapacity - t.capacity)
	for i := 0; i < s.n; i++ {
		free &^= 1 << s.idx[i]
	}
	m.free.Store(free)
}

// splitScratch holds reusable buffers so the split path does not allocate.
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
// records in key order, both slot arrays are the identity permutation,
// which it returns, and the header carries the next pointer. The image is
// assembled in a scratch buffer and stored with one ranged write of
// imageSize(n) bytes; the log entries past n keep whatever they held. The
// caller persists the range.
//
//pmem:volatile the split and BulkLoad callers persist the leaf image's imageSize(n) prefix in one Persist
func (t *Tree) writeLeafImage(off uint64, keys, vals []uint64, next uint64) slotArray {
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
	return s
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
