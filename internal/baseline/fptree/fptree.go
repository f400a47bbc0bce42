// Package fptree re-implements FPTree [Oukid et al., SIGMOD'16] as the
// paper's evaluation does (§6): unsorted leaf nodes in NVM with a persistent
// occupancy bitmap and one-byte key fingerprints to cut cache misses during
// the linear scan; volatile internal nodes; and *selective concurrency* —
// traversal is effectively transactional (here: a lock-free snapshot index,
// see DESIGN.md §2) while every modify operation takes a whole-leaf mutex
// and holds it across all of its persistent instructions (the decoupled
// design of §3.4).
//
// That coarse critical section is exactly what Figures 8-10 indict: under
// skewed workloads the hot leaf is locked almost permanently, writers
// serialize behind flushes, and finds — which restart from the root whenever
// their leaf is locked or changes — collapse.
//
// Persistent-instruction budget (Table 1): insert/update 3 (entry,
// fingerprint, bitmap), remove 1 (bitmap only).
//
// FPTree inherently supports conditional writes: log slots are recycled via
// the bitmap, so duplicate keys must never coexist (§6).
package fptree

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rntree/internal/inner"
	"rntree/internal/pmem"
	"rntree/internal/sync2"
	"rntree/internal/tree"
)

// Leaf layout (cache-line rows):
//
//	line 0  header : next (8B) | bitmap (8B, persistent occupancy)
//	line 1  fps    : one fingerprint byte per log slot
//	line 2+ KVs    : 16-byte entries, capacity 64
const (
	hdrNextOff = 0
	hdrBmpOff  = 8

	fpLineOff = pmem.LineSize
	kvOff     = 2 * pmem.LineSize

	kvEntrySize = 16
)

// DefaultLeafCapacity matches the paper's 64-entry leaves (bitmap = 1 word).
const DefaultLeafCapacity = 64

// Options configure an FPTree.
type Options struct {
	// LeafCapacity is the number of log slots per leaf (4..64, default 64).
	LeafCapacity int
}

// Fingerprint returns the one-byte hash FPTree stores per entry.
func Fingerprint(key uint64) uint8 {
	h := key * 0x9e3779b97f4a7c15
	return uint8(h >> 56)
}

const noHighKey = ^uint64(0)

type leafMeta struct {
	off uint64
	// mu is the whole-leaf lock, held across persists and splits (the
	// coupled design the paper's §4.2 decouples). Outermost in fptree:
	//
	//rnvet:lockorder fptree.leafMeta.mu<fptree.Tree.metaMu
	//rnvet:lockorder fptree.leafMeta.mu<inner.Index.mu
	//rnvet:lockorder fptree.leafMeta.mu<pmem.Heap.allocMu
	mu   sync2.SpinLock
	ver  atomic.Uint64 // bumped by every modify; finds validate it
	high atomic.Uint64
	next atomic.Pointer[leafMeta]
	id   uint64
}

func newLeafMeta(off uint64) *leafMeta {
	m := &leafMeta{off: off}
	m.high.Store(noHighKey)
	return m
}

// Tree is an FPTree instance. All operations are safe for concurrent use.
type Tree struct {
	arena *pmem.Arena
	ix    *inner.Index

	metaMu sync.Mutex
	metas  atomic.Pointer[[]*leafMeta]
	head   *leafMeta

	capacity int
	lsize    uint64

	// readRetries counts find attempts wasted because the leaf was locked
	// by a writer or changed mid-read — each costs a fresh traversal from
	// the root, FPTree's scalability Achilles heel (§6.3.1).
	readRetries atomic.Uint64
}

var _ tree.Index = (*Tree)(nil)

// New formats an empty FPTree in the arena.
func New(arena *pmem.Arena, opts Options) (*Tree, error) {
	if opts.LeafCapacity == 0 {
		opts.LeafCapacity = DefaultLeafCapacity
	}
	if opts.LeafCapacity < 4 || opts.LeafCapacity > 64 {
		opts.LeafCapacity = DefaultLeafCapacity
	}
	t := &Tree{
		arena:    arena,
		capacity: opts.LeafCapacity,
		lsize:    kvOff + uint64(opts.LeafCapacity)*kvEntrySize,
	}
	s := make([]*leafMeta, 0, 64)
	t.metas.Store(&s)
	off, err := arena.Alloc(t.lsize)
	if err != nil {
		return nil, tree.ErrFull
	}
	arena.Zero(off, t.lsize)
	arena.Persist(off, t.lsize)
	m := newLeafMeta(off)
	t.addMeta(m)
	t.head = m
	t.ix = inner.New(m.id)
	return t, nil
}

// Arena returns the backing arena for statistics.
func (t *Tree) Arena() *pmem.Arena { return t.arena }

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int { return len(*t.metas.Load()) }

func (t *Tree) addMeta(m *leafMeta) {
	t.metaMu.Lock()
	old := *t.metas.Load()
	m.id = uint64(len(old))
	ns := append(old, m)
	t.metas.Store(&ns)
	t.metaMu.Unlock()
}

// ReadRetries reports how many read attempts were wasted on root restarts.
func (t *Tree) ReadRetries() uint64 { return t.readRetries.Load() }

func (t *Tree) leafFor(key uint64) *leafMeta {
	return (*t.metas.Load())[t.ix.Seek(key)]
}

func (t *Tree) entryOff(m *leafMeta, i int) uint64 {
	return m.off + kvOff + uint64(i)*kvEntrySize
}

func (t *Tree) readFP(m *leafMeta, i int) uint8 {
	w := t.arena.Read8(m.off + fpLineOff + uint64(i&^7))
	return uint8(w >> (8 * uint(i&7)))
}

//pmem:volatile the insert path persists the fingerprint word separately (persist 2 of the FPTree budget)
func (t *Tree) writeFP(m *leafMeta, i int, fp uint8) {
	off := m.off + fpLineOff + uint64(i&^7)
	w := t.arena.Read8(off)
	sh := 8 * uint(i&7)
	w = (w &^ (uint64(0xff) << sh)) | uint64(fp)<<sh
	t.arena.Write8(off, w)
}

// findSlot scans fingerprints of occupied slots for the key; the caller
// must hold the leaf lock or validate the version afterwards.
func (t *Tree) findSlot(m *leafMeta, bitmap, key uint64) (int, bool) {
	fp := Fingerprint(key)
	for bm := bitmap; bm != 0; {
		i := bits.TrailingZeros64(bm)
		bm &= bm - 1
		if i >= t.capacity {
			break
		}
		if t.readFP(m, i) != fp {
			continue
		}
		if t.arena.Read8(t.entryOff(m, i)) == key {
			return i, true
		}
	}
	return 0, false
}

// Find scans the leaf under optimistic validation. If the leaf is locked by
// a writer the find restarts from the root — FPTree's behaviour under HTM,
// whose cost Figure 8(b,c) exposes.
func (t *Tree) Find(key uint64) (uint64, bool) {
	for {
		m := t.leafFor(key)
		if m.mu.IsLocked() {
			t.readRetries.Add(1)
			runtime.Gosched()
			continue // abort; traverse from the root again
		}
		v0 := m.ver.Load()
		if key >= m.high.Load() {
			continue
		}
		bitmap := t.arena.Read8(m.off + hdrBmpOff)
		i, ok := t.findSlot(m, bitmap, key)
		var val uint64
		if ok {
			val = t.arena.Read8(t.entryOff(m, i) + 8)
		}
		if m.mu.IsLocked() || m.ver.Load() != v0 {
			t.readRetries.Add(1)
			continue
		}
		return val, ok
	}
}

const (
	modeInsert = iota
	modeUpdate
	modeUpsert
)

// Insert adds a key (conditional — inherent in FPTree, §6).
func (t *Tree) Insert(key, value uint64) error { return t.modify(key, value, modeInsert) }

// Update rewrites an existing key (conditional).
func (t *Tree) Update(key, value uint64) error { return t.modify(key, value, modeUpdate) }

// Upsert writes the key unconditionally.
func (t *Tree) Upsert(key, value uint64) error { return t.modify(key, value, modeUpsert) }

func (t *Tree) modify(key, value uint64, mode int) error {
	for {
		m := t.leafFor(key)
		// The decoupled design: one critical section covers the whole
		// operation, flushes included.
		m.mu.Lock()
		if key >= m.high.Load() {
			m.mu.Unlock()
			continue
		}
		bitmap := t.arena.Read8(m.off + hdrBmpOff)
		i, exists := t.findSlot(m, bitmap, key)
		switch mode {
		case modeInsert:
			if exists {
				m.mu.Unlock()
				return tree.ErrKeyExists
			}
		case modeUpdate:
			if !exists {
				m.mu.Unlock()
				return tree.ErrKeyNotFound
			}
		}
		free := bits.TrailingZeros64(^bitmap)
		if free >= t.capacity {
			err := t.splitLocked(m, bitmap) //rnvet:ignore lockflush,spinblock FPTree splits (and allocates) under the leaf lock; the baseline models that cost faithfully
			m.mu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		eoff := t.entryOff(m, free)
		t.arena.Write8(eoff, key)
		t.arena.Write8(eoff+8, value)
		t.arena.Persist(eoff, kvEntrySize) //rnvet:ignore lockflush FPTree flushes inside the critical section by design — the coupling RNTree's §4.2 removes (the stall is bounded by the latency model and never parks)
		t.writeFP(m, free, Fingerprint(key))
		t.arena.Persist(m.off+fpLineOff+uint64(free&^7), 8) //rnvet:ignore lockflush FPTree flushes inside the critical section by design
		nb := bitmap | 1<<uint(free)
		if exists {
			nb &^= 1 << uint(i) // retire the old version in the same atomic word
		}
		t.arena.Write8(m.off+hdrBmpOff, nb)
		t.arena.Persist(m.off+hdrBmpOff, 8) //rnvet:ignore lockflush persist 3: the bitmap commit point, under the leaf lock by design
		m.ver.Add(1)
		m.mu.Unlock()
		return nil
	}
}

// Remove clears the slot's bitmap bit — FPTree's single-persist remove that
// tops Figure 4's remove column.
func (t *Tree) Remove(key uint64) error {
	for {
		m := t.leafFor(key)
		m.mu.Lock()
		if key >= m.high.Load() {
			m.mu.Unlock()
			continue
		}
		bitmap := t.arena.Read8(m.off + hdrBmpOff)
		i, exists := t.findSlot(m, bitmap, key)
		if !exists {
			m.mu.Unlock()
			return tree.ErrKeyNotFound
		}
		t.arena.Write8(m.off+hdrBmpOff, bitmap&^(1<<uint(i)))
		t.arena.Persist(m.off+hdrBmpOff, 8) //rnvet:ignore lockflush the single-persist remove commits under the leaf lock by design
		m.ver.Add(1)
		m.mu.Unlock()
		return nil
	}
}

// splitLocked divides a full leaf; caller holds the leaf lock.
func (t *Tree) splitLocked(m *leafMeta, bitmap uint64) error {
	type rec struct{ k, v uint64 }
	recs := make([]rec, 0, t.capacity)
	for bm := bitmap; bm != 0; {
		i := bits.TrailingZeros64(bm)
		bm &= bm - 1
		off := t.entryOff(m, i)
		recs = append(recs, rec{t.arena.Read8(off), t.arena.Read8(off + 8)})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].k < recs[j].k })
	keys := make([]uint64, len(recs))
	vals := make([]uint64, len(recs))
	for i, r := range recs {
		keys[i], vals[i] = r.k, r.v
	}
	half := len(keys) / 2
	splitKey := keys[half]
	newOff, err := t.arena.Alloc(t.lsize)
	if err != nil {
		return tree.ErrFull
	}
	t.writeLeaf(newOff, keys[half:], vals[half:], t.arena.Read8(m.off+hdrNextOff))
	t.arena.Persist(newOff, t.lsize)
	t.writeLeaf(m.off, keys[:half], vals[:half], newOff)
	t.arena.Persist(m.off, t.lsize)

	nm := newLeafMeta(newOff)
	nm.high.Store(m.high.Load())
	nm.next.Store(m.next.Load())
	t.addMeta(nm)
	m.high.Store(splitKey)
	m.next.Store(nm)
	m.ver.Add(1)
	t.ix.Insert(splitKey, nm.id)
	return nil
}

// writeLeaf lays out a compacted leaf: slots 0..n-1 in key order.
//
//pmem:volatile the split caller persists the whole leaf with one ranged Persist
func (t *Tree) writeLeaf(off uint64, keys, vals []uint64, next uint64) {
	t.arena.Zero(off, t.lsize)
	t.arena.Write8(off+hdrNextOff, next)
	var bm uint64
	for i := range keys {
		bm |= 1 << uint(i)
		eoff := off + kvOff + uint64(i)*kvEntrySize
		t.arena.Write8(eoff, keys[i])
		t.arena.Write8(eoff+8, vals[i])
		w := t.arena.Read8(off + fpLineOff + uint64(i&^7))
		sh := 8 * uint(i&7)
		w = (w &^ (uint64(0xff) << sh)) | uint64(Fingerprint(keys[i]))<<sh
		t.arena.Write8(off+fpLineOff+uint64(i&^7), w)
	}
	t.arena.Write8(off+hdrBmpOff, bm)
}

// Scan must sort every leaf it visits (unsorted leaves, §5.2.4/Figure 6).
func (t *Tree) Scan(start uint64, max int, fn func(key, value uint64) bool) int {
	count := 0
	resume := start
	var m *leafMeta
	for {
		if m == nil {
			m = t.leafFor(resume)
		}
		if m.mu.IsLocked() {
			runtime.Gosched()
			continue
		}
		v0 := m.ver.Load()
		if resume >= m.high.Load() {
			m = nil
			continue
		}
		bitmap := t.arena.Read8(m.off + hdrBmpOff)
		type rec struct{ k, v uint64 }
		var recs []rec
		for bm := bitmap; bm != 0; {
			i := bits.TrailingZeros64(bm)
			bm &= bm - 1
			if i >= t.capacity {
				break
			}
			off := t.entryOff(m, i)
			k := t.arena.Read8(off)
			if k >= resume {
				recs = append(recs, rec{k, t.arena.Read8(off + 8)})
			}
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].k < recs[j].k })
		nxt := m.next.Load()
		if m.mu.IsLocked() || m.ver.Load() != v0 {
			m = nil
			continue
		}
		for _, r := range recs {
			if max > 0 && count >= max {
				return count
			}
			count++
			if !fn(r.k, r.v) {
				return count
			}
			if r.k == noHighKey {
				return count
			}
			resume = r.k + 1
		}
		if nxt == nil {
			return count
		}
		m = nxt
	}
}

// Len counts records (full scan).
func (t *Tree) Len() int {
	n := 0
	t.Scan(0, 0, func(_, _ uint64) bool { n++; return true })
	return n
}
