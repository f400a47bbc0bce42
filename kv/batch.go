package kv

import (
	"fmt"
	"sync"
)

// The commit path. Every mutation of the store — Put, Delete, a PutBatch
// pair, an entry of a server group commit, a shipped replication record, an
// Update step — commits through commitLocked below, and nothing else appends
// a record and repoints the index (compaction's rewriteChain moves records
// that are already committed). It is also the one site that invalidates the
// hot-key cache (cache.go). Where N separate commits to one partition
// cost N ranged persists (one fence each) for their log records, a batch
// holds the partition lock once, lays the records down back-to-back and
// persists every contiguous run with a single call — one fence per chunk-run
// instead of one per record. The commit point is the same for a batch of one
// and a batch of many: records are durable in the value log before any tree
// slot points at them, so an acknowledged batch entry has exactly the
// durable-linearizability story of an individual Put.

// persistSpan accumulates the contiguous byte range of records appended to
// the current chunk and flushes it with one ranged persist.
type persistSpan struct {
	start, end uint64
	active     bool
}

func (sp *persistSpan) add(p *kvPart, off, size uint64) {
	if sp.active && off == sp.end {
		sp.end += size
		return
	}
	sp.flush(p)
	sp.start, sp.end, sp.active = off, off+size, true
}

func (sp *persistSpan) flush(p *kvPart) {
	if sp.active {
		// Spans cover only streamed (write-through) record bytes, so the
		// fence needs no flush copy — just the media occupancy and drain.
		p.arena.PersistStream(sp.start, sp.end-sp.start)
		sp.active = false
	}
}

// appendRecordDeferred writes one immutable record to the partition's log
// with its persist folded into sp: the caller must flush the span before
// making any record of it reachable. Caller holds p.mu (or the store is not
// yet published). Returns the record offset.
func (p *kvPart) appendRecordDeferred(sp *persistSpan, kind int, lsn uint64, key, val []byte, next uint64) (uint64, error) {
	size := recSize(len(key), len(val))
	if size > p.chunkSz-chunkHdrSize {
		return 0, ErrTooLarge
	}
	if p.used+size > p.chunkSz {
		// Rolling to a fresh chunk persists chain pointers of its own;
		// flush the old chunk's span first so the batch's persists stay
		// contiguous runs.
		sp.flush(p)
		if err := p.newChunk(); err != nil {
			return 0, err
		}
	}
	off := p.chunk + p.used
	p.used += size
	hdr := uint64(kind) | uint64(len(key))<<8 | uint64(len(val))<<32
	// Records are laid down with streaming (write-through) stores: nothing
	// reads them until the tree points at them, and that pointer update
	// happens after the span's PersistStream fence — so the log append pays
	// one pass over the bytes instead of a store pass plus a flush copy.
	p.arena.Write8Stream(off, hdr)
	p.arena.Write8Stream(off+8, next)
	p.arena.Write8Stream(off+recLSNOff, lsn)
	streamPadded(p.arena, off+recHdrSize, key)
	streamPadded(p.arena, off+recHdrSize+(uint64(len(key))+7)&^7, val)
	sp.add(p, off, size)
	return off, nil
}

// appendRecord is appendRecordDeferred with the persist done before it
// returns: compaction's shape, one fence per rewritten record.
func (p *kvPart) appendRecord(kind int, lsn uint64, key, val []byte, next uint64) (uint64, error) {
	var sp persistSpan
	off, err := p.appendRecordDeferred(&sp, kind, lsn, key, val, next)
	sp.flush(p)
	return off, err
}

// Mutation is one entry of a Commit batch. The caller fills Key, Val and
// Delete; Commit fills Part and Err, and LSN when Err is nil. Key and Val are
// borrowed for the duration of the call only.
type Mutation struct {
	Key, Val []byte
	Delete   bool // remove Key (Val is ignored) instead of storing Val

	Part int    // index of the partition that owns Key (noPart for an empty Key)
	LSN  uint64 // the committed record's log sequence number
	Err  error  // nil, or why this entry was not applied

	hash    uint64
	shipped bool // a replicated record: LSN is given, not assigned, and no hook fires
}

// noPart is the Part of an entry that failed routing: no partition's commit
// picks it up.
const noPart = -1

// route resolves m's hash and partition, or fails it with ErrEmptyKey.
func (s *Store) route(m *Mutation) {
	m.Part, m.Err = noPart, nil
	if len(m.Key) == 0 {
		m.Err = ErrEmptyKey
		return
	}
	m.hash, m.Part = s.locate(m.Key)
}

// Commit applies every entry of muts — stores and removals, in slice order
// for entries that share a key — and reports each entry's outcome through
// the slice itself: a failed entry carries its error (ErrNotFound for the
// removal of an absent key, which writes nothing), and every entry without
// one is durable when Commit returns. A batch of one costs what Put costs.
//
// Entries are grouped by partition; each partition's records are persisted
// in contiguous runs (one fence per run) before its tree slots are updated.
// Batches therefore interleave arbitrarily with concurrent mutations on other
// partitions, and hold each partition lock no longer than the same entries
// committed individually would in aggregate.
func (s *Store) Commit(muts []Mutation) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		for i := range muts {
			muts[i].Err = ErrClosed
		}
		return
	}
	first, onePart := -1, true
	for i := range muts {
		s.route(&muts[i])
		switch {
		case muts[i].Part == noPart:
		case first < 0:
			first = i
		case muts[i].Part != muts[first].Part:
			onePart = false
		}
	}
	if first < 0 {
		return
	}
	if onePart {
		s.commitPart(muts[first].Part, muts[first:])
		return
	}
	// Apply the groups concurrently: every group holds a different partition
	// lock and persists its records into its own arena, so the drain stalls
	// of the groups overlap (one drain engine per arena) instead of queueing
	// behind one another on the calling goroutine. This is where a
	// cross-partition batch beats the same writes issued serially: the
	// fences amortize within a group AND the media occupancy overlaps across
	// groups. A group is launched at its first entry and picks its later ones
	// out of the tail itself.
	var wg sync.WaitGroup
	for i := first; i < len(muts); i++ {
		pi := muts[i].Part
		leads := pi != noPart
		for j := first; leads && j < i; j++ {
			leads = muts[j].Part != pi
		}
		if !leads {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.commitPart(pi, muts[i:])
		}()
	}
	wg.Wait()
}

// PutBatch stores every keys[i] → vals[i] pair (len(vals) must equal
// len(keys); insert or overwrite, duplicates within the batch allowed and
// applied in order) with one Commit. It returns nil if every pair was
// stored, otherwise a slice with one error per pair (nil entries succeeded).
// When PutBatch returns, every pair without an error is durable.
func (s *Store) PutBatch(keys, vals [][]byte) []error {
	if len(keys) != len(vals) {
		panic("kv: PutBatch keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return nil
	}
	muts := make([]Mutation, len(keys))
	for i := range muts {
		muts[i].Key, muts[i].Val = keys[i], vals[i]
	}
	s.Commit(muts)
	var errs []error
	for i := range muts {
		if muts[i].Err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(muts))
		}
		errs[i] = muts[i].Err
	}
	return errs
}

// commitOne is Commit for a single entry, without the cross-partition
// fan-out, so the entry can live on the caller's stack: Put and Delete
// allocate nothing of their own.
func (s *Store) commitOne(m []Mutation) {
	s.route(&m[0])
	if m[0].Part == noPart {
		return
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		m[0].Err = ErrClosed
		return
	}
	s.commitPart(m[0].Part, m)
}

// batchEntry is commitLocked's per-unique-hash state: the newest record this
// batch appended for the hash and the hash's live/dead accounting delta.
// Batches are small (bounded by the server committer's MaxBatch), so entries
// are found by linear scan instead of a map — cheaper and allocation-free.
type batchEntry struct {
	hash       uint64
	head       uint64
	live, dead int64
}

// batchKeyKind records the kind of the newest record appended for an exact
// key within the current batch (hashes can collide; kinds cannot be keyed
// by hash alone). The key slice is borrowed from the caller and only valid
// during the commitLocked call that wrote it.
type batchKeyKind struct {
	key  []byte
	kind int
}

// commitPart commits the entries of muts routed to partition pi under the
// partition's lock, taken unconditionally: two commits to one partition never
// overlap. The hook is read under the lock, so a hook installed before this
// commit took the lock sees it.
func (s *Store) commitPart(pi int, muts []Mutation) {
	p := &s.parts[pi]
	p.mu.Lock()
	defer p.mu.Unlock()
	s.commitLocked(pi, muts, s.commitHook(), false)
}

// commitLocked is the store's one commit routine. With partition pi's lock
// held by the caller it commits, in order, the entries of muts routed to pi
// (the others are skipped): find the hash's current chain head and the kind
// of the key's newest record (this batch's own records first), take an LSN,
// append the record with its persist deferred into a contiguous span, flush
// the span, repoint each touched hash at its newest record (hashes in the
// order the batch first touched them), settle the live/dead accounting, and
// fire hook in LSN order. A local removal of an absent key fails with
// ErrNotFound before an LSN is taken; a shipped entry keeps the LSN it
// arrived with, and a shipped tombstone is appended whether or not the key is
// present here. ReplApply is the one caller with shipped entries, and passes
// no hook. Every published flat key is invalidated in the hot-key cache
// before the hook fires for it and before commitLocked returns (cache.go).
// With all set (an Update step, a ReplApply run), an entry that cannot be
// appended ends the batch: nothing is published, no hook fires, every entry
// not failed before carries the append's error, and the records already
// appended stay unreachable — their LSNs burned, their space Compact's.
// A tree publish that fails under all ends the publishes instead: the hashes
// before it stay published, and the hook fires for their entries alone.
func (s *Store) commitLocked(pi int, muts []Mutation, hook CommitHook, all bool) {
	p := &s.parts[pi]

	var sp persistSpan
	ents := p.batchEnts[:0]
	kinds := p.batchKinds[:0]
	var failed error // under all, the append error that ends the batch

	for i := range muts {
		m := &muts[i]
		if m.Part != pi {
			continue
		}
		e := entFor(ents, m.hash)
		var known *batchKeyKind
		var head uint64
		var prevKind int
		if e != nil {
			// The chain head is a record this batch appended; walking from it
			// covers both batch-local and pre-existing records (the appended
			// records are readable from the cache before their persist).
			head = e.head
			for j := range kinds {
				if string(kinds[j].key) == string(m.Key) {
					known = &kinds[j]
					break
				}
			}
			if known != nil {
				prevKind = known.kind
			} else {
				prevKind, _ = p.chainFind(head, m.Key)
			}
		} else if oldHead, existed := p.tree.Find(m.hash); existed {
			// The newest record for this key — not whatever sits at the chain
			// head, which may belong to a colliding key — is what the append
			// shadows.
			head = oldHead
			prevKind, _ = p.chainFind(oldHead, m.Key)
		}
		kind, val := recPut, m.Val
		if m.Delete {
			if !m.shipped && prevKind != recPut {
				m.Err = ErrNotFound
				continue
			}
			kind, val = recDelete, nil
		}
		if !m.shipped {
			m.LSN = p.lsn.Add(1)
		}
		off, err := p.appendRecordDeferred(&sp, kind, m.LSN, m.Key, val, head)
		if err != nil {
			m.Err = err
			if all {
				failed = err
				break
			}
			continue
		}
		if e == nil {
			ents = append(ents, batchEntry{hash: m.hash})
			e = &ents[len(ents)-1]
		}
		e.head = off
		if known != nil {
			known.kind = kind
		} else {
			kinds = append(kinds, batchKeyKind{key: m.Key, kind: kind})
		}
		switch {
		case kind == recPut && prevKind == recPut:
			e.dead++ // overwrite: the shadowed value record is garbage
		case kind == recPut:
			// Fresh key, or reinsert over a tombstone (which was counted dead
			// when it was appended).
			e.live++
		case prevKind == recPut:
			// Exactly two records die: the key's newest Put and the
			// tombstone itself.
			e.live--
			e.dead += 2
		default:
			// Shipped tombstone for a key with no live record here (the
			// matching Put was compacted away upstream, or never existed):
			// the tombstone itself is the only garbage.
			e.dead++
		}
	}
	if failed != nil {
		// Nothing is published: every entry the batch did not fail already
		// fails with the append.
		for i := range muts {
			if m := &muts[i]; m.Part == pi && m.Err == nil {
				m.Err = failed
			}
		}
		p.park(ents, kinds)
		return
	}
	// Records must be durable before they become reachable.
	sp.flush(p)
	var liveDelta, deadDelta int64
	for j := range ents {
		e := &ents[j]
		if err := p.tree.Upsert(e.hash, e.head); err != nil {
			// The appended records are durable but unreachable (leaked until
			// the next compaction): fail every entry that fed this hash — with
			// all set, the hashes after it too, so the publishes stop at a
			// first-touch prefix as a crash here would — without accounting.
			for i := range muts {
				m := &muts[i]
				if m.Part == pi && m.Err == nil && (m.hash == e.hash || all && entFor(ents[:j], m.hash) == nil) {
					m.Err = mapFull(err)
				}
			}
			if all {
				break
			}
			continue
		}
		liveDelta += e.live
		deadDelta += e.dead
	}
	p.live.Add(liveDelta)
	p.dead.Add(deadDelta)
	// The cache is read after the publish, which is what lets SetCache run
	// under live writers (cache.go).
	if c := s.cache.Load(); c != nil || hook != nil {
		// LSNs were assigned in slice order under the partition lock, so
		// walking the slice ships this partition's commits in LSN order.
		for i := range muts {
			m := &muts[i]
			if m.Part != pi || m.Err != nil {
				continue
			}
			if c != nil && cacheable(m.Key) {
				c.invalidate(m.hash, m.Key)
			}
			switch {
			case hook == nil:
			case m.Delete:
				hook(pi, m.LSN, ReplDelete, m.Key, nil)
			default:
				hook(pi, m.LSN, ReplPut, m.Key, m.Val)
			}
		}
	}
	p.park(ents, kinds)
}

// entFor returns the entry of ents for hash, or nil.
func entFor(ents []batchEntry, hash uint64) *batchEntry {
	for j := range ents {
		if ents[j].hash == hash {
			return &ents[j]
		}
	}
	return nil
}

// park drops commitLocked's borrowed key references before the caller
// recycles its payload buffers, then keeps the scratch for the next batch.
func (p *kvPart) park(ents []batchEntry, kinds []batchKeyKind) {
	for j := range kinds {
		kinds[j].key = nil
	}
	p.batchEnts, p.batchKinds = ents, kinds
}

// Tx is the write set of one Update step, valid only inside its fn: Put and
// Delete queue records on the step's partition, Commit commits them.
type Tx struct {
	s    *Store
	pi   int
	muts []Mutation
}

// Put queues key → val; both must stay unchanged until they commit.
func (tx *Tx) Put(key, val []byte) { tx.muts = append(tx.muts, Mutation{Key: key, Val: val}) }

// Delete queues the removal of key; an absent key is skipped, not an error.
func (tx *Tx) Delete(key []byte) { tx.muts = append(tx.muts, Mutation{Key: key, Delete: true}) }

// Commit commits the queued records as one batch — one span persist, the
// tree publishes in the order the keys were first queued, the hook in LSN
// order — or, when one of them cannot be appended or routes to another
// partition, publishes none and returns why. A tree publish that fails
// (ErrFull) returns why too, with only the keys first queued before the
// failed one published.
func (tx *Tx) Commit() error {
	s, muts := tx.s, tx.muts
	defer func() { clear(muts); tx.muts = muts[:0] }()
	for i := range muts {
		if s.route(&muts[i]); muts[i].Part != tx.pi {
			return fmt.Errorf("kv: Update: key %q is empty or outside the step's partition", muts[i].Key)
		}
	}
	s.commitLocked(tx.pi, muts, s.commitHook(), true)
	for i := range muts {
		if err := muts[i].Err; err != nil && err != ErrNotFound {
			return err
		}
	}
	return nil
}

// Update runs fn as one step under the lock of the partition that holds every
// key AppendRoute builds from route, so fn's lock-free reads of those keys
// (Get, Has) see every earlier commit and no later one. Then it commits what
// fn queued — fn may Commit earlier itself, to act on a write's success while
// it holds the lock — and returns fn's error, or else the commit's; an error
// from fn does not discard what fn queued. Update allocates nothing.
func (s *Store) Update(route []byte, fn func(tx *Tx) error) error {
	if len(route) == 0 {
		return ErrEmptyKey
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	pi := s.f.PartitionFor(s.keyHash(route))
	p := &s.parts[pi]
	p.mu.Lock()
	defer p.mu.Unlock()
	tx := &p.tx
	tx.s, tx.pi, tx.muts = s, pi, tx.muts[:0]
	err := fn(tx)
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	return err
}
