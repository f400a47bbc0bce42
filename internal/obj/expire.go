package obj

import (
	"container/heap"
	"encoding/binary"
	"time"

	"rntree/kv"
)

// Background expirer (DESIGN.md §15.3). The DRAM index is a deadline map
// plus a min-heap; each tick pops every due entry and reaps it: a run of
// single-record deletes, of any length, that ends with the expiry record.
// The name is masked from the deadline on and stays masked until that last
// delete, so a reap cut short anywhere — crash, full heap — shows nothing
// and is simply run again; an expired key can never resurrect, and the heap
// space of its records is freed exactly once (by kv's compaction of the
// delete tombstones, not by this layer). Replicas never reap: the primary's
// reap ships as ordinary deletes on the LSN stream.

// expireLoop drives ExpireTick at the configured cadence until Close.
func (o *Store) expireLoop(interval time.Duration) {
	defer o.done.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-o.stopc:
			return
		case <-t.C:
			o.ExpireTick()
		}
	}
}

// ExpireTick reaps every key whose deadline has passed and returns how many
// it reaped. Safe to call concurrently with reads, writes and compaction;
// a no-op in replica mode.
func (o *Store) ExpireTick() int {
	if !o.active.Load() {
		return 0
	}
	reaped := 0
	for {
		now := o.opts.Clock()
		o.mu.Lock()
		if len(o.heap) == 0 || o.heap[0].deadline > now {
			o.mu.Unlock()
			return reaped
		}
		e := heap.Pop(&o.heap).(expEntry)
		if d, ok := o.exp[e.name]; !ok || d != e.deadline {
			// Stale heap entry: the TTL was overwritten or removed after
			// this entry was pushed. The live deadline has its own entry.
			o.mu.Unlock()
			continue
		}
		o.mu.Unlock()
		name := []byte(e.name)
		mu := o.lockFor(name)
		mu.Lock()
		err := o.reapLocked(name)
		mu.Unlock()
		if err != nil {
			// Leave the deadline in the map: the key stays masked and the
			// next tick retries (the heap entry is gone, so re-arm it).
			o.mu.Lock()
			if d, ok := o.exp[e.name]; ok && d == e.deadline {
				heap.Push(&o.heap, e)
			}
			o.mu.Unlock()
			return reaped
		}
		reaped++
	}
}

// reapLocked removes one expired name: the flat key and the field records,
// then the header, and the expiry record LAST. Caller holds the name's
// stripe lock. The persisted expiry record is the reap's ground truth —
// whoever still sees it (and a passed deadline) performs the reap, or
// finishes the one a crash or an error interrupted (every delete tolerates
// an absent key); everyone else finds it gone and no-ops, which is what
// makes Reaps count each name once. Compaction never deletes live records,
// so a partition compacting mid-reap only ever relocates them; the delete
// tombstones written here stay the newest versions either way.
func (o *Store) reapLocked(name []byte) error {
	if !o.active.Load() {
		return nil
	}
	ev, err := o.st.Get(expiryKey(name))
	if err == kv.ErrNotFound {
		o.clearDeadline(name)
		return nil
	}
	if err != nil {
		return err
	}
	if len(ev) == 8 {
		if d := int64(binary.LittleEndian.Uint64(ev)); o.opts.Clock() < d {
			// Re-armed with a later deadline after we decided to reap.
			return nil
		}
	}
	if err := o.del(name); err != nil {
		return err
	}
	h, found, err := o.readHeader(name)
	if err != nil {
		return err
	}
	if found {
		if h.typ == TypeHash {
			for _, f := range h.elems {
				if err := o.del(fieldKey(name, f)); err != nil {
					return err
				}
			}
		}
		if err := o.del(headerKey(name)); err != nil {
			return err
		}
	}
	if err := o.dropExpiry(name); err != nil {
		return err
	}
	o.reaps.Add(1)
	if fn := o.invalidate.Load(); fn != nil {
		(*fn)(name)
	}
	return nil
}

// OnReplApply keeps a replica's DRAM expiry index live as shipped records
// land, so replica reads mask expired keys and a freshly promoted primary
// can start reaping without a rebuild. kind is the kv record kind
// (kv.ReplPut / kv.ReplDelete).
func (o *Store) OnReplApply(kind uint8, key, val []byte) {
	if len(key) < 2 || key[0] != NSByte || key[1] != tagExpiry {
		return
	}
	name := key[2:]
	if kind == kv.ReplDelete {
		o.clearDeadline(name)
		return
	}
	if len(val) == 8 {
		o.setDeadline(name, int64(binary.LittleEndian.Uint64(val)))
	}
}
