package core

import (
	"math"
	"sync"
	"sync/atomic"

	"rntree/internal/sync2"
)

// noHighKey marks a leaf that has never split: it covers everything up to
// the end of the key space.
const noHighKey = math.MaxUint64

// leafMeta is the transient per-leaf state. The paper stores these fields in
// the leaf's first cache line but declares them non-persistent ("Variables
// like nlogs and plogs are not [crash consistent]. But they can be
// recovered", §4.1); we keep them in DRAM and rebuild them on recovery —
// see DESIGN.md §2.
type leafMeta struct {
	off uint64 // leaf base offset in the arena

	// vl is the combined version/lock/splitting word of Figure 2. It is the
	// innermost tree-level lock; only the side structures below it may be
	// acquired while it is held (lockorder-checked):
	//
	//rnvet:lockorder core.leafMeta.vl<core.metaTable.mu
	//rnvet:lockorder core.leafMeta.vl<inner.Index.mu
	vl sync2.VersionLock

	// nlogs is the allocation cursor: log entries [0, nlogs) are taken.
	// Advanced lock-free with CAS (Algorithm 2).
	nlogs atomic.Uint32
	// plogs is the number of log entries consumed by completed operations;
	// updated under the leaf lock (Algorithm 1 line 13).
	plogs uint32
	// pins counts writers currently in their unlocked window (log entry
	// allocated, KV bytes being written/flushed). A split waits for pins to
	// drain before compacting the log area, so in-flight writers never race
	// the compaction (see DESIGN.md §2, writer/split coordination).
	pins atomic.Int32

	// high is the exclusive upper bound of this leaf's key range, set when
	// the leaf splits. Operations that reach the leaf with key >= high
	// re-traverse (the index has already been updated).
	high atomic.Uint64

	// next is the DRAM mirror of the persistent next-leaf pointer, used by
	// range scans to walk the chain without arena lookups.
	next atomic.Pointer[leafMeta]

	// fps is the packed per-log-entry fingerprint filter (8 bytes per
	// word; see fingerprint.go for the coherence argument). Written under
	// the leaf lock or SplitBit, snapshotted atomically by readers.
	//
	//pmem:volatile DRAM-only probe filter, rebuilt from slot arrays and logs by every recovery path
	fps [fpWords]atomic.Uint64

	// id is this leaf's handle in the metaTable / inner index.
	id uint64
}

func newLeafMeta(off, id uint64) *leafMeta {
	m := &leafMeta{off: off, id: id}
	m.high.Store(noHighKey)
	return m
}

// metaTable maps leaf handles (the values stored in the inner index) to
// leafMeta pointers. It is a grow-only copy-on-write slice: lookups are a
// single atomic load plus an index, appends (splits only) copy the spine.
type metaTable struct {
	mu sync.Mutex
	p  atomic.Pointer[[]*leafMeta]
}

func newMetaTable() *metaTable {
	t := &metaTable{}
	s := make([]*leafMeta, 0, 64)
	t.p.Store(&s)
	return t
}

// get returns the leafMeta for handle id.
func (t *metaTable) get(id uint64) *leafMeta {
	return (*t.p.Load())[id]
}

// add registers a leaf and returns its handle.
func (t *metaTable) add(m *leafMeta) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.p.Load()
	id := uint64(len(old))
	// Appending one element past every published header's length is safe:
	// concurrent readers only index below the length they loaded.
	ns := append(old, m)
	m.id = id
	t.p.Store(&ns)
	return id
}

// len returns the number of registered leaves.
func (t *metaTable) len() int { return len(*t.p.Load()) }
