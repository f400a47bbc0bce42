package core

import (
	"fmt"

	"rntree/internal/pmem"
)

// CheckInvariants validates the structural invariants of a quiescent tree:
// sorted slot arrays naming no log entry the free-entry mask offers for
// allocation, strictly increasing keys across the leaf chain, a well-formed
// inner index, and agreement between index lookups and leaf contents.
// Intended for tests and the crash fuzzer; not safe to run concurrently
// with mutations.
func (t *Tree) CheckInvariants() error {
	if err := t.ix.Validate(); err != nil {
		return fmt.Errorf("inner index: %w", err)
	}
	var lastKey uint64
	haveLast := false
	seen := 0
	for m := t.head; m != nil; m = m.next.Load() {
		seen++
		var line [pmem.LineSize]byte
		t.arena.ReadLine(m.off+pslotOff, &line)
		s := decodeSlot(&line, t.capacity)
		if s.n > t.capacity-1 {
			return fmt.Errorf("leaf %#x: %d active entries exceeds capacity-1", m.off, s.n)
		}
		free := m.free.Load()
		if free>>t.capacity != 0 {
			return fmt.Errorf("leaf %#x: free mask %#x names entries past capacity %d", m.off, free, t.capacity)
		}
		high := m.high.Load()
		for i := 0; i < s.n; i++ {
			if free&(1<<s.idx[i]) != 0 {
				return fmt.Errorf("leaf %#x: slot %d names free log %d", m.off, i, s.idx[i])
			}
			k := t.arena.Read8(kvEntryOff(m.off, int(s.idx[i])))
			if haveLast && k <= lastKey {
				return fmt.Errorf("leaf %#x: key %d not strictly greater than previous %d", m.off, k, lastKey)
			}
			if k >= high {
				return fmt.Errorf("leaf %#x: key %d outside leaf bound %d", m.off, k, high)
			}
			lastKey, haveLast = k, true
			// The index must route this key back to this leaf.
			if got := t.ix.Seek(k); t.metas.get(got) != m {
				return fmt.Errorf("index routes key %d to leaf %#x, stored in %#x", k, t.metas.get(got).off, m.off)
			}
		}
		// The DRAM chain must mirror the persistent chain.
		pNext := t.arena.Read8(m.off + hdrNextOff)
		dNext := m.next.Load()
		switch {
		case pNext == pmem.NullOff && dNext != nil:
			return fmt.Errorf("leaf %#x: persistent chain ends but DRAM chain continues", m.off)
		case pNext != pmem.NullOff && (dNext == nil || dNext.off != pNext):
			return fmt.Errorf("leaf %#x: persistent next %#x disagrees with DRAM chain", m.off, pNext)
		}
	}
	if seen == 0 {
		return fmt.Errorf("no leaves in chain")
	}
	return nil
}

// DumpStats summarises the tree for diagnostics.
func (t *Tree) DumpStats() string {
	return fmt.Sprintf("rntree{leaves=%d depth=%d dual=%v capacity=%d}",
		t.LeafCount(), t.Depth(), t.dual, t.capacity)
}
