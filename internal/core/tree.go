package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"rntree/internal/htm"
	"rntree/internal/inner"
	"rntree/internal/pmem"
	"rntree/internal/sync2"
	"rntree/internal/tree"
)

// rootMagic marks an arena formatted by this package (root line word 2).
const rootMagic = 0x524e_5452_4545_0001 // "RNTREE" v1

// Root line layout (arena offset 0, the paper's "well-known static address
// for starting the recovery", §5.4). Word 1 is free; words 5-7 belong to the
// layers above (kv store superblock, forest binding, replication state).
const (
	rootHeadOff  = 0  // offset of the left-most leaf
	rootMagicOff = 16 // format magic
	rootCapOff   = 24 // leaf capacity
	rootCleanOff = 32 // non-zero after a clean shutdown (Close)
)

// Options configure an RNTree.
type Options struct {
	// DualSlot enables the dual slot array design (§4.3): readers use a
	// transient copy of the slot array that is only updated after the
	// persistent copy is flushed, so finds proceed without blocking on
	// writers. This is the paper's RNTree+DS variant.
	DualSlot bool
	// LeafCapacity is the number of log entries per leaf (default 64, the
	// paper's best-performing size; at most capacity-1 entries are active).
	LeafCapacity int
	// HTM tunes the emulated hardware transactional memory of the tree's
	// private region. Setting HTM.ForceFallback yields the no-HTM ablation
	// (every slot-array update serializes on one global lock).
	HTM htm.Config
	// FlushInCS moves the log-entry flush inside the leaf critical section,
	// reverting the overlapping design of §4.2 to the decoupled design the
	// paper criticises (all four steps under the lock, as FPTree does).
	// Ablation only.
	FlushInCS bool
}

func (o *Options) normalize() error {
	if o.LeafCapacity == 0 {
		o.LeafCapacity = DefaultLeafCapacity
	}
	if o.LeafCapacity < 4 || o.LeafCapacity > MaxLeafCapacity {
		return fmt.Errorf("core: leaf capacity %d outside [4,%d]", o.LeafCapacity, MaxLeafCapacity)
	}
	return nil
}

// Tree is an RNTree: leaf nodes live in (simulated) NVM, internal nodes in
// DRAM, and every modify operation needs exactly two persistent instructions
// while keeping leaf entries sorted (§4.1).
type Tree struct {
	arena  *pmem.Arena
	region *htm.Region
	ix     *inner.Index
	metas  *metaTable
	head   *leafMeta

	capacity int
	lsize    uint64
	dual     bool
	flushCS  bool

	// readRetries counts wasted read attempts (leaf locked or version
	// changed mid-read) — the reader/writer contention metric of §6.3.
	readRetries atomic.Uint64
	// splitRetries counts modify attempts thrown away by a split race
	// (stale leaf, splitting leaf, or a version change under the lock).
	// Bounded growth under contention is asserted by the backoff stress
	// test; unbounded growth would mean the retry loop is hot-spinning.
	splitRetries atomic.Uint64
}

var _ tree.Index = (*Tree)(nil)

// New formats the arena with an empty RNTree.
func New(arena *pmem.Arena, opts Options) (*Tree, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	t := &Tree{
		arena:    arena,
		region:   htm.NewRegion(arena, opts.HTM),
		metas:    newMetaTable(),
		capacity: opts.LeafCapacity,
		lsize:    imageSize(opts.LeafCapacity),
		dual:     opts.DualSlot,
		flushCS:  opts.FlushInCS,
	}
	headOff, err := arena.Alloc(t.lsize)
	if err != nil {
		return nil, tree.ErrFull
	}
	arena.Zero(headOff, t.lsize)
	arena.Persist(headOff, t.lsize)
	arena.Write8(rootHeadOff, headOff)
	arena.Write8(rootMagicOff, rootMagic)
	arena.Write8(rootCapOff, uint64(opts.LeafCapacity))
	arena.Write8(rootCleanOff, 0)
	arena.Persist(0, pmem.RootSize)
	m := newLeafMeta(headOff, 0)
	t.metas.add(m)
	t.head = m
	t.ix = inner.New(m.id)
	return t, nil
}

// Arena returns the backing persistent arena (for statistics and crash
// simulation in tests and benchmarks).
func (t *Tree) Arena() *pmem.Arena { return t.arena }

// HTMStats returns the emulated-HTM outcome counters.
func (t *Tree) HTMStats() htm.Stats { return t.region.Stats() }

// ResetHTMStats zeroes the emulated-HTM outcome counters.
func (t *Tree) ResetHTMStats() { t.region.ResetStats() }

// DualSlot reports whether the dual-slot-array design is enabled.
func (t *Tree) DualSlot() bool { return t.dual }

// LeafCount returns the current number of leaf nodes.
func (t *Tree) LeafCount() int { return t.metas.len() }

// Depth returns the height of the volatile internal-node index.
func (t *Tree) Depth() int { return t.ix.Depth() }

// ReadRetries reports how many read attempts were wasted on retries
// (blocked by a writer's critical section or invalidated by a concurrent
// split). The dual slot array exists to drive this toward zero (§4.3).
func (t *Tree) ReadRetries() uint64 { return t.readRetries.Load() }

// SplitRetries reports how many modify attempts were discarded by a
// concurrent split and retried from the root.
func (t *Tree) SplitRetries() uint64 { return t.splitRetries.Load() }

// Stats is a point-in-time snapshot of one tree's cost counters: persistence
// traffic from its arena, transaction outcomes from its HTM region, reader
// contention, and the tree shape. The forest layer sums these per partition.
type Stats struct {
	Persists     uint64
	LinesFlushed uint64
	WordsWritten uint64
	ReadRetries  uint64
	HTM          htm.Stats
	Leaves       int
	Depth        int
}

// Stats snapshots the tree's counters. Note the arena and region may be
// shared with other consumers (e.g. the kv value log persists into the same
// arena), in which case their counters reflect all traffic, not just the
// tree's.
func (t *Tree) Stats() Stats {
	as := t.arena.Stats()
	return Stats{
		Persists:     as.Persists,
		LinesFlushed: as.LinesFlushed,
		WordsWritten: as.WordsWritten,
		ReadRetries:  t.readRetries.Load(),
		HTM:          t.region.Stats(),
		Leaves:       t.metas.len(),
		Depth:        t.ix.Depth(),
	}
}

func (t *Tree) leafFor(key uint64) *leafMeta {
	return t.metas.get(t.ix.Seek(key))
}

// allocEntry implements Algorithm 2: lock-free log-entry allocation, one
// CAS clearing the lowest bit of the free-entry mask. It fails when no entry
// is free or the leaf is being split.
func (t *Tree) allocEntry(m *leafMeta) (int, bool) {
	for {
		if m.vl.IsSplitting() {
			return 0, false
		}
		f := m.free.Load()
		if f == 0 {
			return 0, false
		}
		if m.free.CompareAndSwap(f, f&(f-1)) {
			return bits.TrailingZeros64(f), true
		}
	}
}

// searchLeaf binary-searches the sorted slot array for key, returning the
// rank position and whether the key is present.
func (t *Tree) searchLeaf(m *leafMeta, s *slotArray, key uint64) (int, bool) {
	lo, hi := 0, s.n
	for lo < hi {
		mid := (lo + hi) / 2
		if t.arena.Read8(kvEntryOff(m.off, int(s.idx[mid]))) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	ok := lo < s.n && t.arena.Read8(kvEntryOff(m.off, int(s.idx[lo]))) == key
	return lo, ok
}

// htmLeafUpdate atomically publishes a new slot-array line — the paper's
// "atomic turning point" (Algorithm 1 line 10): because the whole cache line
// is written inside a transaction and flushed afterwards, the persistent
// slot array is always entirely old or entirely new.
func (t *Tree) htmLeafUpdate(m *leafMeta, s *slotArray) {
	var line [pmem.LineSize]byte
	s.encode(&line)
	t.region.StoreLine(m.off+pslotOff, &line)
}

// htmLeafCopySlot copies the persistent slot array into the transient one
// (Algorithm 1 line 12) so readers switch to the new state only after it has
// been flushed — the dual slot array rule that prevents the
// read-uncommitted anomaly (§4.3).
func (t *Tree) htmLeafCopySlot(m *leafMeta) {
	t.region.CopyLine(m.off+pslotOff, m.off+tslotOff)
}

// publishSlot commits s as the leaf's slot array (§4.2 step 4): the HTM
// line store, its one-line persist, and under +DS the copy readers switch
// to only once it is durable (§4.3). Modifies, removes, splits and
// compactions all commit through it.
func (t *Tree) publishSlot(m *leafMeta, s *slotArray) {
	t.htmLeafUpdate(m, s)
	t.arena.Persist(m.off+pslotOff, pmem.LineSize)
	if t.dual {
		t.htmLeafCopySlot(m)
	}
}

// htmLeafSnapshot takes an atomic snapshot of a slot-array line (the paper's
// htmLeafSnapshot, Table 2). Binary search happens outside the transaction
// to keep the read set small (§5.2.2).
func (t *Tree) htmLeafSnapshot(m *leafMeta, slotOff uint64) slotArray {
	var line [pmem.LineSize]byte
	t.region.LoadLine(m.off+slotOff, &line)
	return decodeSlot(&line, t.capacity)
}

const (
	modeInsert = iota
	modeUpdate
	modeUpsert
)

// Insert implements Algorithm 1 (conditional: fails if key exists).
func (t *Tree) Insert(key, value uint64) error { return t.modify(key, value, modeInsert) }

// Update rewrites the value of an existing key (conditional). Like insert it
// takes a free log entry and repoints the slot array; the obsolete entry is
// freed by the next compaction (§5.2.3).
func (t *Tree) Update(key, value uint64) error { return t.modify(key, value, modeUpdate) }

// Upsert writes the key unconditionally.
func (t *Tree) Upsert(key, value uint64) error { return t.modify(key, value, modeUpsert) }

func (t *Tree) modify(key, value uint64, mode int) error {
	// Split-race retries back off with the same jittered exponential delay
	// the HTM region applies to conflict aborts: without it, every writer
	// parked on a splitting hot leaf re-traverses in lock step and hammers
	// the same version word while the splitter is trying to finish.
	var jitter uint64
	for attempt := 0; ; attempt++ {
		m := t.leafFor(key)
		v := m.vl.StableVersion()
		if key >= m.high.Load() {
			// Leaf split since the index was read; re-traverse.
			t.splitRetries.Add(1)
			sync2.JitterBackoff(attempt, &jitter)
			continue
		}
		// --- Unlocked window: allocate, write, flush (§4.2 steps 1-3).
		// The pin keeps a concurrent split from compacting the log area
		// while our bytes are in flight.
		m.pins.Add(1)
		if m.vl.IsSplitting() {
			m.pins.Add(-1)
			t.splitRetries.Add(1)
			sync2.JitterBackoff(attempt, &jitter)
			continue
		}
		entry, ok := t.allocEntry(m)
		if !ok {
			m.pins.Add(-1)
			if err := t.forceSplit(m); err != nil {
				return err
			}
			// No backoff: forceSplit made progress (the leaf has room now).
			t.splitRetries.Add(1)
			continue
		}
		eoff := kvEntryOff(m.off, entry)
		t.arena.Write8(eoff, key)
		t.arena.Write8(eoff+8, value)
		if !t.flushCS {
			t.arena.Persist(eoff, kvEntrySize) // persistent instruction 1 of 2
		}
		m.pins.Add(-1)
		// --- Critical section: metadata update (§4.2 step 4).
		m.vl.Lock()
		if t.flushCS {
			// Decoupled-design ablation: the slow flush occupies the lock.
			t.arena.Persist(eoff, kvEntrySize) //rnvet:ignore lockflush the FlushInCS ablation exists to measure exactly this violation
		}
		if m.vl.Version() != v || key >= m.high.Load() {
			// A split intervened while we were flushing; our log entry is
			// orphaned (never referenced) and was freed by that split's
			// compaction. Retry from the root (Algorithm 1 line 5).
			m.vl.Unlock()
			t.splitRetries.Add(1)
			sync2.JitterBackoff(attempt, &jitter)
			continue
		}
		var line [pmem.LineSize]byte
		t.arena.ReadLine(m.off+pslotOff, &line)
		s := decodeSlot(&line, t.capacity)
		pos, exists := t.searchLeaf(m, &s, key)
		switch mode {
		case modeInsert:
			if exists {
				m.vl.Unlock()
				return tree.ErrKeyExists
			}
		case modeUpdate:
			if !exists {
				m.vl.Unlock()
				return tree.ErrKeyNotFound
			}
		}
		if !exists && s.n >= t.capacity-1 {
			// The leaf is at its active-entry limit (capacity-1, the most
			// the slot encoding can represent) — the proactive split that
			// normally prevents this state must have failed on a full
			// arena. Publishing n == capacity would be silently clamped by
			// the next decode, dropping the highest slot. Leave our log
			// entry orphaned (freed by the next compaction), split or
			// surface the typed failure, and retry.
			m.vl.Unlock()
			if err := t.forceSplit(m); err != nil {
				return err
			}
			t.splitRetries.Add(1)
			sync2.JitterBackoff(attempt, &jitter)
			continue
		}
		var ns slotArray
		if exists {
			ns = s.replaceAt(pos, uint8(entry))
		} else {
			ns = s.insertAt(pos, uint8(entry))
		}
		// Fingerprint before publish: any reader whose snapshot contains
		// this entry must already find its fingerprint (fingerprint.go).
		m.setFp(entry, fpHash(key))
		t.publishSlot(m, &ns) //rnvet:ignore lockflush §4.2 step 4: the slot-array publish IS the commit and must flush under the leaf lock (one line: a bounded stall that yields or polls, never parks)
		var splitErr error
		if bits.OnesCount64(m.free.Load()) <= 1 {
			splitErr = t.splitLocked(m) //rnvet:ignore lockflush,spinblock a split commits through the slot line, so it must run under the leaf lock like any modify; pmem locks never wait on tree locks, so the allocator park is bounded
			if errors.Is(splitErr, tree.ErrFull) {
				// The record above is already committed; this split is
				// proactive. Reporting its exhaustion would break the
				// "error means not applied" contract (a caller retrying the
				// insert would see ErrKeyExists). The arena-full condition
				// resurfaces, typed, on the first operation that actually
				// needs the room (forceSplit's path).
				splitErr = nil
			}
		}
		m.vl.Unlock()
		return splitErr
	}
}

// Remove deletes key by rewriting the slot array only — a single persistent
// instruction; the log entry itself is freed by the next compaction (§5.2.3).
func (t *Tree) Remove(key uint64) error {
	for {
		m := t.leafFor(key)
		v := m.vl.StableVersion()
		if key >= m.high.Load() {
			continue
		}
		m.vl.Lock()
		if m.vl.Version() != v || key >= m.high.Load() {
			m.vl.Unlock()
			continue
		}
		var line [pmem.LineSize]byte
		t.arena.ReadLine(m.off+pslotOff, &line)
		s := decodeSlot(&line, t.capacity)
		pos, exists := t.searchLeaf(m, &s, key)
		if !exists {
			m.vl.Unlock()
			return tree.ErrKeyNotFound
		}
		ns := s.removeAt(pos)
		t.publishSlot(m, &ns) //rnvet:ignore lockflush Remove's single persist is the commit point (§4.2 step 4, under the leaf lock)
		m.vl.Unlock()
		return nil
	}
}

// Find implements Algorithm 4, with the per-leaf fingerprint filter
// replacing the binary search of the snapshot: a miss is decided from DRAM
// bytes alone and a hit costs one arena key read plus the value read
// (fingerprint.go). With the dual slot array enabled it never blocks on
// concurrent writers: it snapshots the transient slot array and validates
// the leaf version (which only changes on splits). Without it, readers must
// wait out the writer's critical section, the contention the +DS design
// removes.
func (t *Tree) Find(key uint64) (uint64, bool) {
	for {
		m := t.leafFor(key)
		if t.dual {
			v := m.vl.StableVersion()
			if key >= m.high.Load() {
				continue
			}
			s := t.htmLeafSnapshot(m, tslotOff)
			pos, ok := t.probeLeaf(m, &s, key)
			var val uint64
			if ok {
				val = t.arena.Read8(kvEntryOff(m.off, int(s.idx[pos])) + 8)
			}
			if m.vl.StableVersion() != v {
				t.readRetries.Add(1)
				continue
			}
			return val, ok
		}
		w0 := m.vl.Raw()
		if w0&(sync2.LockBit|sync2.SplitBit) != 0 {
			t.readRetries.Add(1)
			runtime.Gosched()
			continue
		}
		if key >= m.high.Load() {
			continue
		}
		s := t.htmLeafSnapshot(m, pslotOff)
		pos, ok := t.probeLeaf(m, &s, key)
		var val uint64
		if ok {
			val = t.arena.Read8(kvEntryOff(m.off, int(s.idx[pos])) + 8)
		}
		// Validating an unchanged, unlocked word means the writer (if any)
		// finished its critical section, which includes flushing the slot
		// array — so whatever we read is durable.
		if m.vl.Raw() != w0 {
			t.readRetries.Add(1)
			continue
		}
		return val, ok
	}
}

// Scan implements the range query of §5.2.4: locate the first leaf, then
// follow next pointers, applying fn to each entry in key order. Thanks to
// sorted leaves no per-leaf sorting is needed (unlike NV-Tree/FPTree).
func (t *Tree) Scan(start uint64, max int, fn func(key, value uint64) bool) int {
	count := 0
	resume := start
	var m *leafMeta
	buf := make([]tree.KV, 0, t.capacity)
	for {
		if m == nil {
			m = t.leafFor(resume)
		}
		var v, w0 uint64
		if t.dual {
			v = m.vl.StableVersion()
		} else {
			w0 = m.vl.Raw()
			if w0&(sync2.LockBit|sync2.SplitBit) != 0 {
				runtime.Gosched()
				continue
			}
		}
		if resume >= m.high.Load() {
			m = nil // stale leaf; re-traverse
			continue
		}
		var s slotArray
		if t.dual {
			s = t.htmLeafSnapshot(m, tslotOff)
		} else {
			s = t.htmLeafSnapshot(m, pslotOff)
		}
		buf = buf[:0]
		for i := 0; i < s.n; i++ {
			off := kvEntryOff(m.off, int(s.idx[i]))
			k := t.arena.Read8(off)
			if k < resume {
				continue
			}
			buf = append(buf, tree.KV{Key: k, Value: t.arena.Read8(off + 8)})
		}
		nxt := m.next.Load()
		if t.dual {
			if m.vl.StableVersion() != v {
				m = nil
				continue
			}
		} else if m.vl.Raw() != w0 {
			m = nil
			continue
		}
		for _, kv := range buf {
			if max > 0 && count >= max {
				return count
			}
			count++
			if !fn(kv.Key, kv.Value) {
				return count
			}
			if kv.Key == noHighKey {
				return count
			}
			resume = kv.Key + 1
		}
		if nxt == nil {
			return count
		}
		m = nxt
	}
}

// Len counts the records currently in the tree (a full scan; O(n)).
func (t *Tree) Len() int {
	n := 0
	t.Scan(0, 0, func(_, _ uint64) bool { n++; return true })
	return n
}
