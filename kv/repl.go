package kv

import (
	"bytes"
	"container/heap"
	"fmt"
	"math/bits"
	"sort"

	"rntree/internal/forest"
	"rntree/internal/pmem"
)

// Replication support: the value log doubles as the replication log. Every
// committed record carries a per-partition log sequence number (LSN), so a
// replica's progress is a vector of per-partition watermarks, shipped
// records are idempotent (an LSN at or below the watermark is a replay and
// is skipped), and a subscriber can resume from any watermark by replaying
// the reachable records above it in LSN order. See DESIGN.md §13.

// ReplLSN returns partition part's current log sequence number: the highest
// LSN assigned (primary) or applied (replica).
func (s *Store) ReplLSN(part int) uint64 { return s.parts[part].lsn.Load() }

// ReplLSNs returns the per-partition LSN vector.
func (s *Store) ReplLSNs() []uint64 {
	out := make([]uint64, len(s.parts))
	for i := range s.parts {
		out[i] = s.parts[i].lsn.Load()
	}
	return out
}

// ReplRecord is one shipped log record: the partition it commits to, its LSN
// there, its kind (ReplPut or ReplDelete) and its key and value bytes.
type ReplRecord struct {
	Part int
	LSN  uint64
	Kind uint8
	Key  []byte
	Val  []byte
}

// ReplApply applies a batch of shipped records to a replica store through the
// same commit routine as a local mutation, keeping the LSNs they were shipped
// with. Every record is validated and routed before anything is applied: a
// bad partition, kind or key, or a key that routes elsewhere (a geometry
// mismatch), fails the whole batch untouched. Then the partitions are applied
// in sequence, on the caller's goroutine, each under its partition lock.
//
// An LSN at or below the partition's watermark, or at or below an earlier
// record of the batch, has already been applied — possibly before a crash the
// shipper doesn't know about — and is skipped, which is what makes duplicate
// shipping across reconnects and failovers safe. LSN gaps are accepted (a
// primary can burn an LSN on a failed append). The rest commit in runs of
// distinct key hashes: one span persist for a run's records, then one tree
// publish per hash in LSN order, then the watermark moves to the run's last
// record. So a crash anywhere recovers a watermark (recount's maximum
// reachable LSN) below which every shipped LSN is reachable: a hash repeated
// inside a run could publish a later LSN before an earlier one.
//
// The first error ends the apply, with each partition's watermark at its last
// published record. Key and Val are borrowed for the call only. The commit
// hook is NOT fired.
func (s *Store) ReplApply(recs []ReplRecord) error {
	var parts [forest.MaxPartitions / 64]uint64 // the partitions recs name
	for i := range recs {
		r := &recs[i]
		switch {
		case r.Part < 0 || r.Part >= len(s.parts):
			return fmt.Errorf("kv: ReplApply: partition %d out of range [0,%d)", r.Part, len(s.parts))
		case r.Kind != ReplPut && r.Kind != ReplDelete:
			return fmt.Errorf("kv: ReplApply: bad record kind %d", r.Kind)
		case len(r.Key) == 0:
			return ErrEmptyKey
		}
		if _, part := s.locate(r.Key); part != r.Part {
			return fmt.Errorf("kv: ReplApply: key routes to partition %d, record says %d (geometry mismatch)", part, r.Part)
		}
		parts[r.Part/64] |= 1 << (r.Part % 64)
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	for w, set := range parts {
		for ; set != 0; set &= set - 1 {
			if err := s.replApplyPart(w*64+bits.TrailingZeros64(set), recs); err != nil {
				return err
			}
		}
	}
	return nil
}

// replApplyPart is ReplApply for the records of recs routed to partition pi.
// The partition lock makes watermark check and apply atomic against
// concurrent appliers and a promotion racing in local writes.
func (s *Store) replApplyPart(pi int, recs []ReplRecord) error {
	p := &s.parts[pi]
	p.mu.Lock()
	defer p.mu.Unlock()
	muts := p.replMuts[:0]
	defer func() { clear(muts); p.replMuts = muts[:0] }()
	last := p.lsn.Load()
	for i := range recs {
		r := &recs[i]
		if r.Part != pi || r.LSN <= last {
			continue
		}
		last = r.LSN
		muts = append(muts, Mutation{Key: r.Key, Val: r.Val, Delete: r.Kind == ReplDelete, LSN: r.LSN, shipped: true})
		s.route(&muts[len(muts)-1])
	}
	for run := muts; len(run) > 0; {
		n := distinctRun(run)
		s.commitLocked(pi, run[:n], nil, true)
		// Under all, the published records are the run's prefix without an
		// error: durable and reachable, so the watermark advance is
		// recoverable (recount re-derives it from them).
		ok := 0
		for ok < n && run[ok].Err == nil {
			ok++
		}
		if ok > 0 {
			p.lsn.Store(run[ok-1].LSN)
		}
		if ok < n {
			return run[ok].Err
		}
		run = run[n:]
	}
	return nil
}

// distinctRun returns the length of the longest prefix of muts whose key
// hashes are distinct.
func distinctRun(muts []Mutation) int {
	for n := 1; n < len(muts); n++ {
		for j := range muts[:n] {
			if muts[j].hash == muts[n].hash {
				return n
			}
		}
	}
	return len(muts)
}

// Bounds on what one ReplBacklog pass may buffer. A lagging subscriber's
// replay must not pin a copy of the whole partition in memory (a fresh
// replica subscribes from LSN 0), so the walk streams the backlog in
// bounded windows: each tree scan keeps only the lowest-LSN records that
// fit the budget, ships them, and rescans above the highest shipped LSN
// until the stream is complete.
// Vars, not consts, so tests can shrink them to force multi-pass replays.
var (
	replBacklogMaxRecs  = 4096
	replBacklogMaxBytes = uint64(4 << 20)
)

// backlogRec is one buffered backlog record.
type backlogRec struct {
	lsn      uint64
	kind     uint8
	key, val []byte
}

// backlogHeap is a max-heap on LSN with byte accounting: evicting the root
// drops the highest buffered LSN, so a budget-bounded collection pass always
// retains the *lowest* LSNs above the cursor — the next contiguous window of
// the stream. Evicted records are re-read by the next pass.
type backlogHeap struct {
	recs  []backlogRec
	bytes uint64
}

func (h *backlogHeap) Len() int           { return len(h.recs) }
func (h *backlogHeap) Less(i, j int) bool { return h.recs[i].lsn > h.recs[j].lsn }
func (h *backlogHeap) Swap(i, j int)      { h.recs[i], h.recs[j] = h.recs[j], h.recs[i] }
func (h *backlogHeap) Push(x any)         { h.recs = append(h.recs, x.(backlogRec)) }
func (h *backlogHeap) Pop() any {
	r := h.recs[len(h.recs)-1]
	h.recs = h.recs[:len(h.recs)-1]
	return r
}

func (h *backlogHeap) add(r backlogRec) (evicted bool) {
	heap.Push(h, r)
	h.bytes += uint64(len(r.key) + len(r.val))
	// Keep at least one record so a single over-budget record still makes
	// progress instead of looping forever.
	for h.Len() > 1 && (h.Len() > replBacklogMaxRecs || h.bytes > replBacklogMaxBytes) {
		dropped := heap.Pop(h).(backlogRec)
		h.bytes -= uint64(len(dropped.key) + len(dropped.val))
		evicted = true
	}
	return evicted
}

// ReplBacklog calls fn for every reachable record of partition part with
// LSN above from — up to a barrier snapshot of the partition's LSN taken
// under the partition's commit lock — in ascending LSN order, until fn returns
// false. Superseded record versions dropped by compaction are fine: the
// newest record per key survives with the highest LSN, so replaying the
// backlog converges a subscriber to the primary's state. The key/val slices
// are freshly allocated and may be retained.
//
// The barrier is the replay's correctness keystone (DESIGN.md §13.1): every
// commit holds the partition's mu across LSN-assign → publish → hook, so once
// the snapshot is read under mu, every record with LSN <= the snapshot is
// already tree-published (the scans below see it) AND already offered to
// every registered subscriber queue. Records above the snapshot are exactly
// the live queue's stream and are never delivered here — so a subscriber
// advancing its cursor along this replay can never skip past a record the
// scan raced with and then drop that record's queue copy as a duplicate.
//
// Memory is bounded (replBacklogMaxRecs/replBacklogMaxBytes): the backlog
// streams in LSN windows, rescanning the tree once per window, rather than
// materializing the whole partition per lagging subscriber.
func (s *Store) ReplBacklog(part int, from uint64, fn func(lsn uint64, kind uint8, key, val []byte) bool) error {
	if part < 0 || part >= len(s.parts) {
		return fmt.Errorf("kv: ReplBacklog: partition %d out of range [0,%d)", part, len(s.parts))
	}
	p := &s.parts[part]
	p.mu.Lock()
	target := p.lsn.Load()
	p.mu.Unlock()
	h := &backlogHeap{}
	for from < target {
		h.recs, h.bytes = h.recs[:0], 0
		// The scan is a reader section; fn, which may block on the network,
		// runs after it on the copies.
		truncated := p.collectBacklog(h, from, target)
		if h.Len() == 0 {
			return nil // nothing reachable above from: stream complete
		}
		sort.Slice(h.recs, func(i, j int) bool { return h.recs[i].lsn < h.recs[j].lsn })
		for _, r := range h.recs {
			if !fn(r.lsn, r.kind, r.key, r.val) {
				return nil
			}
		}
		from = h.recs[len(h.recs)-1].lsn
		if !truncated {
			return nil // the pass held everything above the cursor: done
		}
	}
	return nil
}

// collectBacklog is one ReplBacklog pass: it copies into h the lowest-LSN
// reachable records in (from, target] that fit the budget, and reports
// whether the budget dropped any.
func (p *kvPart) collectBacklog(h *backlogHeap, from, target uint64) (truncated bool) {
	defer p.readers.exit(p.readers.enter(0))
	var buf [64]byte // keys up to 64 bytes are read into this one buffer
	p.tree.Scan(0, 0, func(_, off uint64) bool {
		for off != 0 {
			if l := p.readLSN(off); l > from && l <= target {
				kind, key, next := p.readRecordMeta(off, buf[:])
				if h.add(backlogRec{l, uint8(kind), bytes.Clone(key), p.appendValue(nil, off)}) {
					truncated = true
				}
				off = next
				continue
			}
			off = p.arena.Read8(off + 8) // next pointer only; skip the copies
		}
		return true
	})
	return truncated
}

// ReplState returns the persisted replication epoch and role byte (0, 0 if
// the store never participated in replication). The state line lives on
// partition 0's arena, rooted at the root-line word rootReplOff.
func (s *Store) ReplState() (epoch uint64, role uint8) {
	a := s.parts[0].arena
	off := a.Read8(rootReplOff)
	if off == pmem.NullOff || a.Read8(off+replStMagicOff) != replMagic {
		return 0, 0
	}
	w := a.Read8(off + replStWordOff)
	return w >> 8, uint8(w)
}

// SetReplState persists the replication epoch and role. Both pack into one
// 8-byte word, so the update is a single atomic persist: a crash during a
// promotion observes either the old epoch/role or the new, never a mix.
// The first call allocates the state line (line persisted before the root
// word references it; a crash between the two reads back as
// never-replicated, i.e. epoch 0, and the unreached line is free space at
// the next open).
func (s *Store) SetReplState(epoch uint64, role uint8) error {
	if epoch >= 1<<56 {
		return fmt.Errorf("kv: replication epoch %d overflows the packed state word", epoch)
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.replStMu.Lock()
	defer s.replStMu.Unlock()
	a := s.parts[0].arena
	off := a.Read8(rootReplOff)
	if off == pmem.NullOff {
		var err error
		off, err = a.Alloc(pmem.LineSize)
		if err != nil {
			return err
		}
		a.Write8(off+replStMagicOff, replMagic)
		a.Write8(off+replStWordOff, epoch<<8|uint64(role))
		a.Persist(off, pmem.LineSize)
		a.Write8(rootReplOff, off)
		a.Persist(rootReplOff, 8)
		return nil
	}
	a.Write8(off+replStWordOff, epoch<<8|uint64(role))
	a.Persist(off+replStWordOff, 8)
	return nil
}
