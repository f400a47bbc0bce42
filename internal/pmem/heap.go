// Heap format: segment headers, the crash-consistent allocator and growth.
//
// Every arena carries one persistent header per segment (the go-pmem
// runtime's pArena pattern): identity and geometry, and — in segment 0 —
// the allocator metadata (bump mark, size-class free lists) plus a small
// undo log. This is the only allocator the package has: no space is handed
// out without persisted metadata, so a recovered image never hands out the
// same block twice. The device is addressed by byte offset, so every
// persisted pointer is an offset and an image is position-independent by
// construction: there is no mapping address to record.
//
// Allocator updates follow the undo-log discipline from
// "Transactions on Red-black and AVL trees in NVRAM": single-word updates
// flip atomically (MetaFlip8); multi-word updates persist their old values
// into the undo area and arm a status word before mutating (UndoBegin /
// MetaWrite8 / UndoCommit), so recovery can always roll an interrupted
// update back to the pre-operation state. rnvet's undolog pass enforces the
// pairing statically.
//
// Segment header layout (hdrSize bytes; at offset RootSize in segment 0,
// at the segment base otherwise):
//
//	line 0: magic, ordinal, segSize, seg0Size, growSize, maxSegs,
//	        nsegs (segment 0 only), reserved
//	line 1: three reserved words (written zero, never read), then
//	        bump (segment 0 only)
//	line 2+3: size-class table, classCount × (blockSize, headOff) pairs;
//	        free blocks thread the list through their first word
//	line 4: undo log: status (armed record count), then
//	        undoRecs × (address, old value) records
//	lines 5-7: reserved
package pmem

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

const (
	// heapMagic0/heapMagicN identify a formatted initial/grown segment.
	heapMagic0 = 0x524e484541503030 // "RNHEAP00"
	heapMagicN = 0x524e484541503031 // "RNHEAP01"

	// seg0HdrOff is the header position in segment 0 (past the root line).
	seg0HdrOff = RootSize
	// hdrSize is the per-segment header footprint in bytes.
	hdrSize = 8 * LineSize
	// DataStart is the first allocatable offset of segment 0: everything
	// below it is the root line and the header. Code that addresses raw
	// lines without allocating them stays at or above it, so the image it
	// leaves still recovers.
	DataStart = seg0HdrOff + hdrSize

	// Header word offsets (relative to the header base).
	hdrMagicOff    = 0
	hdrOrdinalOff  = 8
	hdrSegSizeOff  = 16
	hdrSeg0SizeOff = 24
	hdrGrowSizeOff = 32
	hdrMaxSegsOff  = 40
	hdrNsegsOff    = 48
	hdrRsvd0Off    = 64 // +64/+72/+80 reserved: written zero, never read —
	hdrRsvd1Off    = 72 // earlier builds kept a mapping address here, so
	hdrRsvd2Off    = 80 // recovery ignores rather than validates them
	hdrBumpOff     = 88
	hdrClassOff    = 2 * LineSize
	hdrUndoOff     = 4 * LineSize

	// classCount size classes of (blockSize, headOff) pairs fill two lines.
	classCount = 8
	// undoRecs (address, old value) records plus the status word fill the
	// undo line.
	undoRecs = 3

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

// testBinary reports whether this process is a `go test` binary; free
// checking is on under tests and off otherwise.
var testBinary = strings.HasSuffix(os.Args[0], ".test")

// Segments returns the number of committed segments (1 for fixed arenas).
func (h *Heap) Segments() int { return int(h.Read8(seg0HdrOff + hdrNsegsOff)) }

// GrowSize returns the size in bytes of each appended segment.
func (h *Heap) GrowSize() uint64 { return h.growSize }

// Seg0Size returns the size in bytes of the initial segment.
func (h *Heap) Seg0Size() uint64 { return h.seg0Size }

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

// ---------------------------------------------------------------------------
// Formatting

// formatSeg0 writes and persists segment 0's header on a fresh heap.
func (h *Heap) formatSeg0() {
	hb := uint64(seg0HdrOff)
	h.Write8(hb+hdrMagicOff, heapMagic0)
	h.Write8(hb+hdrOrdinalOff, 0)
	h.Write8(hb+hdrSegSizeOff, h.seg0Size)
	h.Write8(hb+hdrSeg0SizeOff, h.seg0Size)
	h.Write8(hb+hdrGrowSizeOff, h.growSize)
	h.Write8(hb+hdrMaxSegsOff, uint64(h.maxSegs))
	h.Write8(hb+hdrNsegsOff, 1)
	h.Write8(hb+hdrRsvd0Off, 0)
	h.Write8(hb+hdrRsvd1Off, 0)
	h.Write8(hb+hdrRsvd2Off, 0)
	h.Write8(hb+hdrBumpOff, h.dataStart(0))
	h.Persist(hb, hdrSize)
}

// formatSeg writes and persists segment si's header during Grow. The
// segment is not visible to recovery until the nsegs cutover commits it.
func (h *Heap) formatSeg(si int) {
	hb := h.hdrBase(si)
	h.Write8(hb+hdrMagicOff, heapMagicN)
	h.Write8(hb+hdrOrdinalOff, uint64(si))
	h.Write8(hb+hdrSegSizeOff, h.growSize)
	h.Write8(hb+hdrSeg0SizeOff, h.seg0Size)
	h.Write8(hb+hdrGrowSizeOff, h.growSize)
	h.Write8(hb+hdrMaxSegsOff, uint64(h.maxSegs))
	h.Write8(hb+hdrRsvd0Off, 0)
	h.Write8(hb+hdrRsvd1Off, 0)
	h.Write8(hb+hdrRsvd2Off, 0)
	h.Persist(hb, hdrSize)
}

// ---------------------------------------------------------------------------
// Undo-logged metadata updates

// MetaFlip8 atomically updates one word of persistent allocator metadata.
// A single aligned word is the simulated hardware's atomic write unit, so a
// flip is crash-consistent without an undo window: recovery observes either
// the old or the new value, both well-formed. Multi-word updates must use
// UndoBegin/MetaWrite8/UndoCommit instead (rnvet's undolog pass enforces
// this).
func (h *Heap) MetaFlip8(off, v uint64) {
	h.Write8(off, v)
	h.Persist(off, WordSize)
}

// UndoBegin opens an undo window over the given metadata words: their
// current values are persisted into the segment-0 undo log, then the status
// word arms the log. If the process crashes anywhere before UndoCommit,
// recovery rolls every logged word back to its pre-window value. At most
// undoRecs words fit one window.
func (h *Heap) UndoBegin(addrs ...uint64) {
	if len(addrs) == 0 || len(addrs) > undoRecs {
		panic(fmt.Sprintf("pmem: UndoBegin with %d records (max %d)", len(addrs), undoRecs))
	}
	ub := uint64(seg0HdrOff + hdrUndoOff)
	for i, addr := range addrs {
		h.Write8(ub+8+uint64(i)*16, addr)
		h.Write8(ub+16+uint64(i)*16, h.Read8(addr))
	}
	// Records first, then the arming flip: the status word must never be
	// durable before the old values it points at.
	h.Persist(ub, LineSize)
	h.Write8(ub, uint64(len(addrs)))
	h.Persist(ub, WordSize)
}

// MetaWrite8 stores and persists one metadata word inside an open undo
// window. Calling it outside a window is a discipline violation (undolog
// pass); the write would not be rolled back after a crash.
func (h *Heap) MetaWrite8(off, v uint64) {
	h.Write8(off, v)
	h.Persist(off, WordSize)
}

// UndoCommit closes the window: the multi-word update is complete, so the
// log is disarmed and recovery will keep the new values.
func (h *Heap) UndoCommit() {
	h.Write8(seg0HdrOff+hdrUndoOff, 0)
	h.Persist(seg0HdrOff+hdrUndoOff, WordSize)
}

// undoRecover rolls back an interrupted metadata update: if the status word
// is armed, every logged word is restored (newest first) and the log
// disarmed. Idempotent — crashing inside undoRecover re-runs it. A status
// word or a record address no UndoBegin could have persisted is an error,
// returned before the first rollback write.
func (h *Heap) undoRecover() error {
	ub := uint64(seg0HdrOff + hdrUndoOff)
	n := h.Read8(ub)
	if n == 0 {
		return nil
	}
	if n > undoRecs {
		return fmt.Errorf("undo status %d exceeds %d records", n, undoRecs)
	}
	for i := uint64(0); i < n; i++ {
		if addr := h.Read8(ub + 8 + i*16); addr%WordSize != 0 || addr >= h.Size() {
			return fmt.Errorf("undo record %d: address %#x outside the heap", i, addr)
		}
	}
	for i := n; i > 0; i-- {
		h.MetaFlip8(h.Read8(ub+8+(i-1)*16), h.Read8(ub+16+(i-1)*16))
	}
	h.MetaFlip8(ub, 0)
	return nil
}

// ---------------------------------------------------------------------------
// Persistent allocation

// findClass returns the class-table index holding blocks of exactly size
// bytes, or -1.
func (h *Heap) findClass(size uint64) int {
	for i := 0; i < classCount; i++ {
		if h.Read8(seg0HdrOff+hdrClassOff+uint64(i)*16) == size {
			return i
		}
	}
	return -1
}

// claimClass returns a class index for size: an exact match, or the first
// empty slot (claimed by the caller's free). -1 when the table is full of
// other sizes.
func (h *Heap) claimClass(size uint64) int {
	empty := -1
	for i := 0; i < classCount; i++ {
		cs := h.Read8(seg0HdrOff + hdrClassOff + uint64(i)*16)
		if cs == size {
			return i
		}
		if cs == 0 && empty < 0 {
			empty = i
		}
	}
	return empty
}

// ErrOutOfMemory is returned by Alloc when the heap is exhausted and cannot
// grow further (capacity or MaxSegments reached).
var ErrOutOfMemory = errors.New("pmem: arena out of memory")

// Alloc reserves size bytes (rounded up to whole lines) of heap space and
// returns its byte offset: it pops the size class, else the volatile
// overflow list, else bumps — growing by one segment, up to MaxSegments,
// when the committed space is exhausted. The allocation is crash-consistent:
// the bump mark and size-class free lists live in segment 0's header and
// every update is persisted before Alloc returns, so a recovered image never
// hands out the same block twice.
func (h *Heap) Alloc(size uint64) (uint64, error) {
	size = (size + LineSize - 1) &^ uint64(LineSize-1)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	if ci := h.findClass(size); ci >= 0 {
		headOff := seg0HdrOff + hdrClassOff + uint64(ci)*16 + 8
		if head := h.Read8(headOff); head != 0 {
			// Single-word pop: the head flips to the block's stored next
			// pointer; either value is a well-formed list after a crash.
			h.MetaFlip8(headOff, h.Read8(head))
			h.noteAllocated(head, size)
			h.stats.allocs.Add(1)
			return head, nil
		}
	}
	if lst := h.freed[size]; len(lst) > 0 {
		off := lst[len(lst)-1]
		h.freed[size] = lst[:len(lst)-1]
		h.noteAllocated(off, size)
		h.stats.allocs.Add(1)
		return off, nil
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
		// recovered heap never re-allocates it. A crash between this flip
		// and the caller linking the block leaks it: one block per crash.
		h.MetaFlip8(seg0HdrOff+hdrBumpOff, off+size)
		h.noteAllocated(off, size)
		h.stats.allocs.Add(1)
		return off, nil
	}
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
// before dereferencing, so a hostile image is an error and not a panic in
// the bounds check.
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
			// segment (the skipped tail is internal fragmentation). A block
			// larger than a whole grown segment's data region can never fit.
			if si+1 >= h.maxSegs || size > h.growSize-hdrSize {
				return 0, false, ErrOutOfMemory
			}
			off = end
			continue
		}
		return off, end > committed, nil
	}
}

// Free returns a block (size rounded up to whole lines) to the allocator by
// pushing it onto its persistent size-class list, claiming a class slot if
// needed. The three metadata words (class size, class head, block link)
// change under one undo window, so a crash mid-free rolls back to the
// pre-free state instead of leaving a half-linked list. When the class table
// is full of other sizes the block joins the volatile overflow list, which a
// crash leaks — bounded by the number of distinct block sizes beyond
// classCount. Under a `go test` binary an overlapping or double free panics.
func (h *Heap) Free(off, size uint64) {
	size = (size + LineSize - 1) &^ uint64(LineSize-1)
	h.allocMu.Lock()
	defer h.allocMu.Unlock()
	h.checkFree(off, size)
	h.stats.frees.Add(1)
	ci := h.claimClass(size)
	if ci < 0 {
		h.freed[size] = append(h.freed[size], off)
		return
	}
	sizeOff := seg0HdrOff + hdrClassOff + uint64(ci)*16
	headOff := sizeOff + 8
	h.UndoBegin(sizeOff, headOff, off)
	h.MetaWrite8(off, h.Read8(headOff)) // thread the list through the block
	h.MetaWrite8(sizeOff, size)         // claim (or re-assert) the class
	h.MetaWrite8(headOff, off)          // publish the block
	h.UndoCommit()
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
// Free checking (debug)

// checkFree validates a Free against the currently-free line set (allocMu
// held): out-of-range, overlapping and double frees panic. Lines the heap
// recovered as free are tracked too (rebuildFreeLines).
func (h *Heap) checkFree(off, size uint64) {
	if !h.freeCheck {
		return
	}
	if off%LineSize != 0 || off < RootSize || size == 0 || off+size > h.Size() {
		panic(fmt.Sprintf("pmem: Free(%d, %d) outside allocatable space (size %d)", off, size, h.Size()))
	}
	for l := off; l < off+size; l += LineSize {
		if _, dup := h.freeLines[l]; dup {
			panic(fmt.Sprintf("pmem: double or overlapping free of line %d in Free(%d, %d)", l, off, size))
		}
	}
	for l := off; l < off+size; l += LineSize {
		h.freeLines[l] = struct{}{}
	}
}

// noteAllocated removes a handed-out block's lines from the free set.
func (h *Heap) noteAllocated(off, size uint64) {
	if !h.freeCheck {
		return
	}
	for l := off; l < off+size; l += LineSize {
		delete(h.freeLines, l)
	}
}

// rebuildFreeLines reseeds the debug free set from the persistent class
// lists after recovery.
func (h *Heap) rebuildFreeLines() {
	if !h.freeCheck {
		return
	}
	for i := 0; i < classCount; i++ {
		size := h.Read8(seg0HdrOff + hdrClassOff + uint64(i)*16)
		if size == 0 {
			continue
		}
		for off := h.Read8(seg0HdrOff + hdrClassOff + uint64(i)*16 + 8); off != 0; off = h.Read8(off) {
			for l := off; l < off+size; l += LineSize {
				h.freeLines[l] = struct{}{}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Recovery and invariants

// ErrBadHeap is returned (wrapped with the reason) by Recover for an image
// that does not hold a heap this package could have persisted.
var ErrBadHeap = errors.New("pmem: image is not a recoverable heap")

// Recover constructs a rebooted heap from a crash image: the cache image
// equals the captured state, all lines clean. Geometry, bump mark
// and size-class free lists come from the persisted allocator metadata; an
// armed undo log is rolled back, and an appended-but-uncommitted trailing
// segment (crash inside Grow before the nsegs cutover) is discarded. Of cfg
// only Latency is used. An image with a missing magic, implausible geometry,
// fewer bytes than its header commits, a garbage undo log or allocator
// metadata CheckHeap rejects fails with ErrBadHeap; img is never written.
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
	seg0 := rd(seg0HdrOff + hdrSeg0SizeOff)
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
	if err := h.undoRecover(); err != nil {
		return bad("%v", err)
	}
	if err := h.CheckHeap(); err != nil {
		return bad("%v", err)
	}
	h.rebuildFreeLines()
	return h, nil
}

// CheckHeap validates the persistent allocator metadata: segment headers
// coherent, bump mark inside the committed space, undo log disarmed or
// well-formed, free lists acyclic with line-aligned in-bounds blocks below
// the bump mark and no block on two lists. Intended for recovery and the
// fault explorer.
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
	if n := h.Read8(seg0HdrOff + hdrUndoOff); n > undoRecs {
		return fmt.Errorf("undo status %d exceeds %d records", n, undoRecs)
	}
	seen := make(map[uint64]bool)
	maxSteps := h.Size() / LineSize
	for i := 0; i < classCount; i++ {
		size := h.Read8(seg0HdrOff + hdrClassOff + uint64(i)*16)
		head := h.Read8(seg0HdrOff + hdrClassOff + uint64(i)*16 + 8)
		if size == 0 {
			if head != 0 {
				return fmt.Errorf("class %d: head %d with zero size", i, head)
			}
			continue
		}
		if size%LineSize != 0 {
			return fmt.Errorf("class %d: unaligned size %d", i, size)
		}
		steps := uint64(0)
		for off := head; off != 0; off = h.Read8(off) {
			if steps++; steps > maxSteps {
				return fmt.Errorf("class %d: free list cycle", i)
			}
			si := h.segIndex(off)
			_, end := h.segSpan(si)
			if si >= nsegs || off%LineSize != 0 || off < h.dataStart(si) || off+size > end {
				return fmt.Errorf("class %d: block [%d,%d) outside segment %d data", i, off, off+size, si)
			}
			// The mark is global and monotone: every block ever handed out
			// ends at or below it, whichever segment hosts it.
			if off+size > bump {
				return fmt.Errorf("class %d: block [%d,%d) above bump %d", i, off, off+size, bump)
			}
			for l := off; l < off+size; l += LineSize {
				if seen[l] {
					return fmt.Errorf("class %d: line %d on two free blocks", i, l)
				}
				seen[l] = true
			}
		}
	}
	return nil
}
