// Package core implements RNTree, the paper's contribution: a durable
// NVM-based B+tree that keeps leaf nodes sorted with only two persistent
// instructions per modify operation by using HTM to raise the atomic-write
// size to one cache line, and that overlaps persistency with concurrency so
// log flushes never execute inside critical sections (Section 4).
package core

import (
	"fmt"

	"rntree/internal/pmem"
)

// Leaf node layout (Figure 1), one cache line per row:
//
//	line 0  header   : next (8B, persistent) | nlogs | plogs | minKey (clean-shutdown only)
//	line 1  pslot    : persistent slot array — slot[0]=count, slot[1..]=order
//	line 2  tslot    : transient slot array (dual-slot-array design, §4.3)
//	line 3+ KV logs  : 16-byte (key,value) entries, 4 per line
//
// nlogs/plogs/minKey in the header are only meaningful after a clean
// shutdown (Close); crash recovery recomputes them from the slot array and
// logs (§5.4).
const (
	hdrNextOff  = 0  // persistent next-leaf pointer
	hdrNlogsOff = 8  // clean-shutdown nlogs
	hdrPlogsOff = 16 // clean-shutdown plogs
	hdrMinOff   = 24 // clean-shutdown min key (index separator)

	pslotOff = pmem.LineSize     // persistent slot array line
	tslotOff = 2 * pmem.LineSize // transient slot array line
	kvOff    = 3 * pmem.LineSize // first KV log entry

	kvEntrySize = 16

	// MaxLeafCapacity is bounded by the slot array: one count byte plus one
	// index byte per entry in a single cache line.
	MaxLeafCapacity = 64
	// DefaultLeafCapacity is the paper's leaf size ("the size of 64 performs
	// the best in general", §6.2). At most capacity-1 entries are active.
	DefaultLeafCapacity = 64
)

// imageSize returns the byte size of the first n log entries of a leaf and
// everything before them: the header and both slot lines. imageSize of the
// capacity is the whole leaf; imageSize(n) is the live prefix of a
// compacted image of n entries, which is all that a split's right leaf and
// BulkLoad write and persist. Every reader and recovery path reaches a log
// entry through a slot array, so the bytes past imageSize(n) are never
// interpreted.
func imageSize(n int) uint64 {
	return kvOff + uint64(n)*kvEntrySize
}

// kvEntryOff returns the arena offset of log entry i in the leaf at off.
func kvEntryOff(leafOff uint64, i int) uint64 {
	return leafOff + kvOff + uint64(i)*kvEntrySize
}

// slotArray is the decoded form of a slot-array cache line: slot[0] holds
// the number of entries, the following bytes hold log-entry indices in key
// order ("the smallest key is stored in Log[slot[1]]", Figure 1).
type slotArray struct {
	n   int
	idx [MaxLeafCapacity - 1]uint8
}

// decodeSlot parses a slot-array line, clamping out-of-range values so that
// readers racing a split can never index out of bounds (they will fail
// version validation and retry anyway).
func decodeSlot(line *[pmem.LineSize]byte, capacity int) slotArray {
	var s slotArray
	s.n = int(line[0])
	if s.n > capacity-1 {
		s.n = capacity - 1
	}
	for i := 0; i < s.n; i++ {
		v := line[1+i]
		if int(v) >= capacity {
			v = 0
		}
		s.idx[i] = v
	}
	return s
}

// encode serializes the slot array into a cache-line image.
func (s *slotArray) encode(line *[pmem.LineSize]byte) {
	*line = [pmem.LineSize]byte{}
	line[0] = byte(s.n)
	for i := 0; i < s.n; i++ {
		line[1+i] = s.idx[i]
	}
}

// insertAt returns a copy of s with log entry e inserted at position pos.
func (s *slotArray) insertAt(pos int, e uint8) slotArray {
	var out slotArray
	out.n = s.n + 1
	copy(out.idx[:pos], s.idx[:pos])
	out.idx[pos] = e
	copy(out.idx[pos+1:out.n], s.idx[pos:s.n])
	return out
}

// replaceAt returns a copy of s with position pos repointed to log entry e
// (an update: the key keeps its rank, the payload moves to a fresh log).
func (s *slotArray) replaceAt(pos int, e uint8) slotArray {
	out := *s
	out.idx[pos] = e
	return out
}

// removeAt returns a copy of s without position pos.
func (s *slotArray) removeAt(pos int) slotArray {
	var out slotArray
	out.n = s.n - 1
	copy(out.idx[:pos], s.idx[:pos])
	copy(out.idx[pos:out.n], s.idx[pos+1:s.n])
	return out
}

// String formats the slot array for diagnostics.
func (s *slotArray) String() string {
	return fmt.Sprintf("slot{n=%d idx=%v}", s.n, s.idx[:s.n])
}
