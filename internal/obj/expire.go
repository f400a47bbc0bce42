package obj

import (
	"container/heap"
	"encoding/binary"
	"time"

	"rntree/kv"
)

// Expirer (DESIGN.md §15.3). The DRAM index is a deadline map plus a
// min-heap, and one clock timer is pending for the heap head's deadline;
// when it fires, the tick pops every due entry and reaps it: one step that
// deletes the name's records, of any number, and the expiry record last.
// The name is masked from the deadline on and stays masked until that last
// delete publishes, so a reap cut short anywhere — crash, full heap — shows
// nothing and is simply run again; an expired key can never resurrect, and
// the heap space of its records is freed exactly once (by kv's compaction of
// the delete tombstones, not by this layer). Replicas never reap: the
// primary's reap ships as ordinary deletes on the LSN stream.

// reapRetry is how long a reap that failed (a full heap) waits to run again.
const reapRetry = time.Second

// armLocked re-arms the timer for deadline d (ms) unless the layer does not
// reap: closed, or a replica. Caller holds mu.
func (o *Store) armLocked(d int64) {
	if !o.closed && o.active.Load() {
		o.timer.Reset(time.UnixMilli(d).Sub(o.st.Clock().Now()))
	}
}

// pushLocked adds e to the heap, arming the timer if e is its head. Caller
// holds mu.
func (o *Store) pushLocked(e expEntry) {
	if len(o.heap) == 0 || e.deadline < o.heap[0].deadline {
		o.armLocked(e.deadline)
	}
	heap.Push(&o.heap, e)
}

// armHead arms the timer for the heap head, if there is one.
func (o *Store) armHead() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.heap) > 0 {
		o.armLocked(o.heap[0].deadline)
	}
}

// fire is the timer's callback: a tick, then the timer armed for the head.
func (o *Store) fire() {
	o.reapMu.Lock()
	defer o.reapMu.Unlock()
	if !o.closed {
		o.ExpireTick()
		o.armHead()
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
		now := o.now()
		o.mu.Lock()
		if len(o.heap) == 0 || o.heap[0].deadline > now {
			o.mu.Unlock()
			return reaped
		}
		e := heap.Pop(&o.heap).(expEntry)
		if d, ok := o.exp[e.name]; !ok || d > now {
			// Stale heap entry: the TTL was removed, or moved later, after
			// this entry was pushed. The live deadline has its own entry.
			o.mu.Unlock()
			continue
		}
		o.mu.Unlock()
		did, err := o.write([]byte(e.name), func(*kv.Tx, bool) error { return nil })
		if err != nil {
			// The deadline stays in the map, so the key stays masked; a
			// retry entry runs the reap again (a closed store never will).
			if err != kv.ErrClosed {
				o.mu.Lock()
				o.pushLocked(expEntry{now + reapRetry.Milliseconds(), e.name})
				o.mu.Unlock()
			}
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
	if d, ok := o.deadline(name); !ok || o.now() < d || !o.active.Load() {
		return false, nil
	}
	ev, err := o.st.Get(expiryKey(name))
	if err != nil {
		o.clearDeadline(name) // a deadline whose record is gone
		return false, nil
	}
	if len(ev) == 8 && o.now() < int64(binary.LittleEndian.Uint64(ev)) {
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
