package obj

import (
	"container/heap"
	"encoding/binary"
	"time"

	"rntree/kv"
)

// Background expirer (DESIGN.md §15.3). The DRAM index is a deadline map
// plus a min-heap; each tick pops every due entry and reaps it: one step
// that deletes the name's records, of any number, and the expiry record
// last. The name is masked from the deadline on and stays masked until that
// last delete publishes, so a reap cut short anywhere — crash, full heap —
// shows nothing and is simply run again; an expired key can never resurrect,
// and the heap space of its records is freed exactly once (by kv's
// compaction of the delete tombstones, not by this layer). Replicas never
// reap: the primary's reap ships as ordinary deletes on the LSN stream.

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
		did, err := o.write([]byte(e.name), func(*kv.Tx, bool) error { return nil })
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
		if did {
			reaped++
		}
	}
}

// reapRecords queues, inside a write step, the deletes of an expired name's
// records — the flat key, the field records the header lists, the header —
// and reports whether it did; write queues the expiry record's delete after
// the step's other writes. The persisted expiry record is the reap's ground
// truth: only a name whose record is still there with a passed deadline is
// reaped, so a reap cut short is finished by whoever comes next (every
// delete tolerates an absent key), and one that finished is not run again,
// which is what makes Reaps count each name once. Compaction never deletes
// live records, so a partition compacting mid-reap only ever relocates them.
func (o *Store) reapRecords(tx *kv.Tx, name []byte) (bool, error) {
	if d, ok := o.deadline(name); !ok || o.opts.Clock() < d || !o.active.Load() {
		return false, nil
	}
	ev, err := o.st.Get(expiryKey(name))
	if err != nil {
		o.clearDeadline(name) // a deadline whose record is gone
		return false, nil
	}
	if len(ev) == 8 && o.opts.Clock() < int64(binary.LittleEndian.Uint64(ev)) {
		return false, nil // re-armed with a later deadline
	}
	hk := headerKey(name)
	var fields [][]byte
	if hv, err := o.st.Get(hk); err == nil && typed(hv, TypeHash) == nil {
		if fields, err = elems(hv); err != nil {
			return false, err
		}
	}
	tx.Delete(name)
	for _, f := range fields {
		tx.Delete(fieldKey(name, f))
	}
	tx.Delete(hk)
	return true, nil
}

// OnReplApply keeps a replica's DRAM expiry index live as shipped records
// land, so replica reads mask expired keys and a freshly promoted primary
// can start reaping without a rebuild. kind is the kv record kind
// (kv.ReplPut / kv.ReplDelete).
func (o *Store) OnReplApply(kind uint8, key, val []byte) {
	tag, name, ok := ParseInternalKey(key)
	switch {
	case !ok || tag != tagExpiry:
	case kind == kv.ReplDelete:
		o.clearDeadline(name)
	case len(val) == 8:
		o.setDeadline(name, int64(binary.LittleEndian.Uint64(val)))
	}
}
