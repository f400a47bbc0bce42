// Heap format: segment headers, the allocator and growth.
//
// Every arena carries one persistent header per segment (the go-pmem
// runtime's pArena pattern): identity and geometry, and in segment 0 the
// two allocator words that are persisted, the segment count and the bump
// mark. Each changes by a single-word flip (MetaFlip8), so no allocator
// update needs a log. Free space below the mark is volatile: a per-line
// in-use bitmap that Alloc and Free keep and that Recover rebuilds from the
// blocks the owners report on open (MarkLive), so a block a crash left
// unlinked is free again instead of leaked. The device is addressed by byte
// offset, so every persisted pointer is an offset and an image is
// position-independent by construction: there is no mapping address to
// record.
//
// Segment header layout (one line; at offset RootSize in segment 0, at the
// segment base otherwise): magic and ordinal, then in segment 0 only its
// size, the initial-segment size (the two must agree), grow size, maxSegs,
// nsegs and the bump mark. A grown segment's header holds its magic and
// ordinal alone: recovery takes the geometry from segment 0.
package pmem

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

const (
	// heapMagic0/heapMagicN identify a formatted initial/grown segment.
	heapMagic0 = 0x524e484541503130 // "RNHEAP10"
	heapMagicN = 0x524e484541503131 // "RNHEAP11"

	// seg0HdrOff is the header position in segment 0 (past the root line).
	seg0HdrOff = RootSize
	// hdrSize is the per-segment header footprint in bytes.
	hdrSize = LineSize
	// DataStart is the first allocatable offset of segment 0: everything
	// below it is the root line and the header. Code that addresses raw
	// lines without allocating them stays at or above it, so the image it
	// leaves still recovers.
	DataStart = seg0HdrOff + hdrSize

	// Header word offsets (relative to the header base).
	hdrMagicOff    = 0
	hdrOrdinalOff  = 8
	hdrSegSizeOff  = 16
	hdrInitSizeOff = 24
	hdrGrowSizeOff = 32
	hdrMaxSegsOff  = 40
	hdrNsegsOff    = 48
	hdrBumpOff     = 56

	// minHeapSize is the smallest initial segment: root line, header and
	// one data line. minGrowSize is the smallest appended segment.
	minHeapSize = DataStart + LineSize
	minGrowSize = 4096

	// maxRecoverBytes is Recover's plausibility ceiling on the total
	// capacity a crash image's header may claim (64 GiB — far above any
	// simulated device). Header words are user-reachable via raw Write8,
	// so recovery must reject absurd geometry instead of letting the
	// capacity arithmetic overflow into a makeslice panic or a huge
	// allocation.
	maxRecoverBytes = 1 << 36
)

// Segments returns the number of committed segments (1 for fixed arenas).
func (h *Heap) Segments() int { return int(h.Read8(seg0HdrOff + hdrNsegsOff)) }

// GrowSize returns the size in bytes of each appended segment.
func (h *Heap) GrowSize() uint64 { return h.growSize }

// segIndex maps a byte offset to its segment ordinal.
func (h *Heap) segIndex(off uint64) int {
	if off < h.seg0Size {
		return 0
	}
	return 1 + int((off-h.seg0Size)/h.growSize)
}

// segSpan returns segment si's [base, end) byte range.
func (h *Heap) segSpan(si int) (base, end uint64) {
	if si == 0 {
		return 0, h.seg0Size
	}
	base = h.seg0Size + uint64(si-1)*h.growSize
	return base, base + h.growSize
}

// hdrBase returns the header offset of segment si.
func (h *Heap) hdrBase(si int) uint64 {
	base, _ := h.segSpan(si)
	if si == 0 {
		return base + RootSize
	}
	return base
}

// dataStart returns the first allocatable offset of segment si.
func (h *Heap) dataStart(si int) uint64 { return h.hdrBase(si) + hdrSize }

// reserveHeader marks segment si's lines below its data region in use, so
// no free-space run reaches into a header.
func (h *Heap) reserveHeader(si int) {
	base, _ := h.segSpan(si)
	h.setUsed(base, h.dataStart(si)-base, true)
}

// ---------------------------------------------------------------------------
// Formatting

// formatSeg0 writes and persists segment 0's header on a fresh heap.
func (h *Heap) formatSeg0() {
	hb := uint64(seg0HdrOff)
	h.Write8(hb+hdrMagicOff, heapMagic0)
	h.Write8(hb+hdrOrdinalOff, 0)
	h.Write8(hb+hdrSegSizeOff, h.seg0Size)
	h.Write8(hb+hdrInitSizeOff, h.seg0Size)
	h.Write8(hb+hdrGrowSizeOff, h.growSize)
	h.Write8(hb+hdrMaxSegsOff, uint64(h.maxSegs))
	h.Write8(hb+hdrNsegsOff, 1)
	h.Write8(hb+hdrBumpOff, h.dataStart(0))
	h.Persist(hb, hdrSize)
}

// formatSeg writes and persists segment si's header during Grow. The
// segment is not visible to recovery until the nsegs cutover commits it.
func (h *Heap) formatSeg(si int) {
	hb := h.hdrBase(si)
	h.Write8(hb+hdrMagicOff, heapMagicN)
	h.Write8(hb+hdrOrdinalOff, uint64(si))
	h.Persist(hb, hdrSize)
}

// ---------------------------------------------------------------------------
// Allocation

// MetaFlip8 atomically updates one word of persistent allocator metadata
// (the bump mark, nsegs). A single aligned word is the simulated hardware's
// atomic write unit, so recovery observes either the old or the new value,
// both well-formed.
func (h *Heap) MetaFlip8(off, v uint64) {
	h.Write8(off, v)
	h.Persist(off, WordSize)
}

// ErrOutOfMemory is returned by Alloc when the heap is exhausted and cannot
// grow further (capacity or MaxSegments reached).
var ErrOutOfMemory = errors.New("pmem: arena out of memory")

// Alloc reserves size bytes (rounded up to whole lines) of heap space and
// returns its byte offset: the lowest run of free lines below the bump mark
// that fits (not looked for when a request no larger found none since the
// last Free), else a bump allocation — growing by one segment, up to
// MaxSegments, when the committed space is exhausted. Only a bump persists
// anything: its one-word mark flip, before the block is handed out. A crash
// before the caller links the block does not leak it: no owner reports it
// at the next open, so it is free space again.
func (h *Heap) Alloc(size uint64) (uint64, error) {
	size = lines(size)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	h.marking = false
	if n := size / LineSize; n < h.noFit {
		if off, ok := h.fitFree(n); ok {
			h.take(off, size)
			return off, nil
		}
		h.noFit = n
	}
	for {
		off, needGrow, err := h.fitBump(size)
		if err != nil {
			return 0, err
		}
		if needGrow {
			if err := h.growLocked(); err != nil {
				return 0, err
			}
			continue
		}
		// The bump mark is persisted before the block is handed out, so a
		// recovered heap never re-allocates it while an owner reports it.
		h.MetaFlip8(seg0HdrOff+hdrBumpOff, off+size)
		h.take(off, size)
		return off, nil
	}
}

// lines rounds size up to whole lines, one at least.
func lines(size uint64) uint64 { return max(LineSize, (size+LineSize-1)&^uint64(LineSize-1)) }

// take hands out [off, off+size) (allocMu held).
func (h *Heap) take(off, size uint64) {
	h.setUsed(off, size, true)
	h.inUse += size
	h.stats.allocs.Add(1)
}

// fitFree returns the lowest run of n free lines below the bump mark
// (allocMu held) and moves hint to the first free line it passes. Segment
// headers are in use, so a run never spans two segments.
func (h *Heap) fitFree(n uint64) (uint64, bool) {
	end := h.Read8(seg0HdrOff+hdrBumpOff) / LineSize
	first, run := end, uint64(0)
	for l := h.hint; l < end; l++ {
		switch w := h.used[l/64]; {
		case w == ^uint64(0):
			l |= 63 // a whole word of lines in use
			run = 0
		case h.isUsed(l):
			run = 0
		default:
			first = min(first, l)
			if run++; run == n {
				h.hint = first
				return (l + 1 - n) * LineSize, true
			}
		}
	}
	h.hint = first
	return 0, false
}

// setUsed sets or clears the in-use bits of [off, off+size).
func (h *Heap) setUsed(off, size uint64, used bool) {
	for l := off / LineSize; l < (off+size)/LineSize; l++ {
		if used {
			h.used[l/64] |= 1 << (l % 64)
		} else {
			h.used[l/64] &^= 1 << (l % 64)
		}
	}
}

// isUsed reports whether line l is in use.
func (h *Heap) isUsed(l uint64) bool { return h.used[l/64]>>(l%64)&1 != 0 }

// inUseAny reports whether any line of [off, off+size) is in use.
func (h *Heap) inUseAny(off, size uint64) bool {
	for l := off / LineSize; l < (off+size)/LineSize; l++ {
		if h.isUsed(l) {
			return true
		}
	}
	return false
}

// InUse returns the bytes handed out (or reported live since Recover) and
// not freed.
func (h *Heap) InUse() uint64 {
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	return h.inUse
}

// MarkLive reports [off, off+size) (size rounded up to whole lines) as a
// block an owner reached on its open-time walk. Recover leaves the heap's
// free space unknown until then: the first Alloc or Free after Recover makes
// every line below the bump mark that no MarkLive reported free space, and
// a MarkLive after that panics. A block that Allocated rejects or that
// overlaps a block already reported is an error, so recovery walks that
// report what they follow reject a cyclic or aliasing image.
func (h *Heap) MarkLive(off, size uint64) error {
	size = lines(size)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	if !h.marking {
		panic("pmem: MarkLive after the first Alloc or Free")
	}
	if !h.Allocated(off, size) {
		return fmt.Errorf("block [%#x,%#x) is not one the allocator handed out", off, off+size)
	}
	if h.inUseAny(off, size) {
		return fmt.Errorf("block [%#x,%#x) overlaps a block already reported", off, off+size)
	}
	h.setUsed(off, size, true)
	h.inUse += size
	return nil
}

// Bump returns the persisted allocation mark: every block ever handed out
// ends at or below it.
func (h *Heap) Bump() uint64 {
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	return h.Read8(seg0HdrOff + hdrBumpOff)
}

// Allocated reports whether [off, off+size) can be a block Alloc handed out:
// line-aligned, at or above DataStart and ending at or below the persisted
// mark. Recovery code puts every pointer it reads from the media through it
// (or MarkLive) before dereferencing, so a hostile image is an error and not
// a panic in the bounds check.
func (h *Heap) Allocated(off, size uint64) bool {
	mark := h.Read8(seg0HdrOff + hdrBumpOff)
	return off%LineSize == 0 && off >= DataStart && size <= mark && off <= mark-size
}

// fitBump finds the lowest offset at or above the bump mark where a
// size-byte block fits entirely inside one segment's data region. needGrow
// reports that the hosting segment is not committed yet.
func (h *Heap) fitBump(size uint64) (off uint64, needGrow bool, err error) {
	off = h.Read8(seg0HdrOff + hdrBumpOff)
	committed := h.Size()
	for {
		si := h.segIndex(off)
		if si >= h.maxSegs {
			return 0, false, ErrOutOfMemory
		}
		_, end := h.segSpan(si)
		if ds := h.dataStart(si); off < ds {
			off = ds
		}
		if off+size > end {
			// The tail of segment si is too small: advance to the next
			// segment. A block larger than a whole grown segment's data
			// region can never fit.
			if si+1 >= h.maxSegs || size > h.growSize-hdrSize {
				return 0, false, ErrOutOfMemory
			}
			off = end
			continue
		}
		return off, end > committed, nil
	}
}

// Free returns a block (size rounded up to whole lines) to the allocator's
// volatile free space; it persists nothing. A block outside one segment's
// data region, or holding a line that is not in use — a double or
// overlapping free — panics.
func (h *Heap) Free(off, size uint64) {
	size = lines(size)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	h.marking = false
	si := h.segIndex(off)
	if _, end := h.segSpan(si); off%LineSize != 0 || off+size > h.Size() || off < h.dataStart(si) || off+size > end {
		panic(fmt.Sprintf("pmem: Free(%d, %d) outside allocatable space (size %d)", off, size, h.Size()))
	}
	for l := off; l < off+size; l += LineSize {
		if !h.isUsed(l / LineSize) {
			panic(fmt.Sprintf("pmem: double or overlapping free of line %d in Free(%d, %d)", l, off, size))
		}
	}
	h.setUsed(off, size, false)
	h.inUse -= size
	h.hint = min(h.hint, off/LineSize)
	h.noFit = math.MaxUint64
	h.stats.frees.Add(1)
}

// growLocked appends and commits one segment (allocMu held). The new
// segment's header is fully persisted before the nsegs flip in segment 0
// commits it; a crash in between leaves an uncommitted trailing segment
// that recovery discards.
func (h *Heap) growLocked() error {
	n := h.Segments()
	if n >= h.maxSegs {
		return ErrOutOfMemory
	}
	_, end := h.segSpan(n)
	h.committedW.Store(end / WordSize)
	h.formatSeg(n)
	h.MetaFlip8(seg0HdrOff+hdrNsegsOff, uint64(n+1))
	h.reserveHeader(n)
	return nil
}

// Grow explicitly commits one more segment, as Alloc does on demand.
// Returns ErrOutOfMemory when the heap is at MaxSegments.
func (h *Heap) Grow() error {
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	return h.growLocked()
}

// ---------------------------------------------------------------------------
// Recovery and invariants

// ErrBadHeap is returned (wrapped with the reason) by Recover for an image
// that does not hold a heap this package could have persisted.
var ErrBadHeap = errors.New("pmem: image is not a recoverable heap")

// Recover constructs a rebooted heap from a crash image: the cache image
// equals the captured state, all lines clean. Geometry and the bump mark
// come from the persisted header, and an appended-but-uncommitted trailing
// segment (crash inside Grow before the nsegs cutover) is discarded. Free
// space is not persisted: the owners report the blocks their open-time walks
// reach (MarkLive), and the first Alloc or Free makes the rest free. Of cfg
// only Latency is used. An image with a missing magic, implausible
// geometry, fewer bytes than its header commits or a header CheckHeap
// rejects fails with ErrBadHeap; img is never written.
func Recover(img []uint64, cfg Config) (*Arena, error) {
	bad := func(format string, args ...any) (*Arena, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadHeap, fmt.Sprintf(format, args...))
	}
	imgBytes := uint64(len(img)) * WordSize
	if imgBytes < minHeapSize {
		return bad("%d bytes hold no segment header", imgBytes)
	}
	rd := func(off uint64) uint64 { return img[off/WordSize] }
	if m := rd(seg0HdrOff + hdrMagicOff); m != heapMagic0 {
		return bad("magic %#x", m)
	}
	seg0 := rd(seg0HdrOff + hdrInitSizeOff)
	grow := rd(seg0HdrOff + hdrGrowSizeOff)
	maxSegs := rd(seg0HdrOff + hdrMaxSegsOff)
	nsegs := rd(seg0HdrOff + hdrNsegsOff)
	// Per-field caps first so the capacity arithmetic below cannot
	// overflow uint64 (seg0, grow <= 2^36; maxSegs <= 2^36/minGrow, so
	// seg0+(maxSegs-1)*grow < 2^61), then the combined ceiling.
	if seg0 != rd(seg0HdrOff+hdrSegSizeOff) || seg0%LineSize != 0 || grow%LineSize != 0 ||
		seg0 < minHeapSize || grow < minGrowSize || seg0 > maxRecoverBytes || grow > maxRecoverBytes ||
		nsegs < 1 || nsegs > maxSegs || maxSegs > maxRecoverBytes/minGrowSize {
		return bad("geometry: segment 0 %d/%d bytes, grow %d, %d of %d segments",
			rd(seg0HdrOff+hdrSegSizeOff), seg0, grow, nsegs, maxSegs)
	}
	committed := seg0 + (nsegs-1)*grow
	capacity := seg0 + (maxSegs-1)*grow
	if committed > imgBytes || imgBytes > capacity || capacity > maxRecoverBytes {
		return bad("image of %d bytes, header commits %d of at most %d", imgBytes, committed, capacity)
	}
	h := newHeap(seg0, grow, int(maxSegs), cfg.Latency)
	// Copy the whole image (an uncommitted trailing segment's bytes are
	// unreachable behind the committed watermark).
	//rnvet:ignore atomicfield single-threaded recovery: h has not escaped yet, no reader can race the bulk copy
	copy(h.cache, img)
	for w := 0; w*32 < len(img)/WordsPerLine; w++ {
		atomic.StoreUint64(&h.lines[w], ^uint64(0)) // every imaged line clean
	}
	h.committedW.Store(committed / WordSize)
	if err := h.CheckHeap(); err != nil {
		return bad("%v", err)
	}
	for si := 0; si < int(nsegs); si++ {
		h.reserveHeader(si)
	}
	h.marking = true
	return h, nil
}

// CheckHeap validates the persistent allocator metadata: segment headers
// coherent and the bump mark inside the committed space.
func (h *Heap) CheckHeap() error {
	nsegs := h.Segments()
	if nsegs < 1 || nsegs > h.maxSegs {
		return fmt.Errorf("nsegs %d out of range [1,%d]", nsegs, h.maxSegs)
	}
	for si := 0; si < nsegs; si++ {
		hb := h.hdrBase(si)
		wantMagic := uint64(heapMagicN)
		if si == 0 {
			wantMagic = heapMagic0
		}
		if m := h.Read8(hb + hdrMagicOff); m != wantMagic {
			return fmt.Errorf("segment %d: bad magic %#x", si, m)
		}
		if o := h.Read8(hb + hdrOrdinalOff); o != uint64(si) {
			return fmt.Errorf("segment %d: ordinal %d", si, o)
		}
	}
	bump := h.Read8(seg0HdrOff + hdrBumpOff)
	if bump%LineSize != 0 || bump < h.dataStart(0) || bump > h.Size() {
		return fmt.Errorf("bump %d outside [%d, %d]", bump, h.dataStart(0), h.Size())
	}
	return nil
}
