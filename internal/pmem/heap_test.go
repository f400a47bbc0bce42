package pmem

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func newTestHeap(t *testing.T, size, grow uint64, maxSegs int) *Heap {
	t.Helper()
	return New(Config{Size: size, GrowSize: grow, MaxSegments: maxSegs})
}

// mustRecover is Recover on an image the test expects to be sound.
func mustRecover(t *testing.T, img []uint64) *Heap {
	t.Helper()
	r, err := Recover(img, Config{})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return r
}

// Every arena is formatted, whatever its size: the header is persisted, the
// allocator starts at DataStart, and the image recovers.
func TestHeapFormatting(t *testing.T) {
	for _, size := range []uint64{0, 100, 4096, 1 << 16} {
		h := New(Config{Size: size})
		if err := h.CheckHeap(); err != nil {
			t.Fatalf("New(%d): %v", size, err)
		}
		if h.Bump() != DataStart || h.Size() < DataStart+LineSize || h.Size()%LineSize != 0 {
			t.Fatalf("New(%d): bump %d, size %d", size, h.Bump(), h.Size())
		}
		r := mustRecover(t, h.CrashImage(nil, 0))
		if r.Size() != h.Size() || r.Bump() != DataStart {
			t.Fatalf("New(%d) recovered as size %d, bump %d", size, r.Size(), r.Bump())
		}
	}
}

// The property a volatile bump allocator never had, on the smallest arena
// New builds: the block handed out before the crash is not handed out again.
func TestTinyArenaRecoversAllocatorState(t *testing.T) {
	h := New(Config{Size: 100})
	off, err := h.Alloc(LineSize)
	if err != nil {
		t.Fatal(err)
	}
	h.Write8(off, 7)
	h.Persist(off, 8)
	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Bump() != off+LineSize || r.Read8(off) != 7 {
		t.Fatalf("recovered bump %d (want %d), word %d", r.Bump(), off+LineSize, r.Read8(off))
	}
	if again, err := r.Alloc(LineSize); err == nil {
		t.Fatalf("recovered heap handed out %d; the one data line at %d is live", again, off)
	}
	r.Free(off, LineSize)
	if got, err := r.Alloc(LineSize); err != nil || got != off {
		t.Fatalf("freed line not reused: %d, %v", got, err)
	}
}

// A GrowSize under the segment minimum is rounded up, not a reason to lose
// growth.
func TestGrowSizeRoundedUp(t *testing.T) {
	h := New(Config{Size: 100, GrowSize: 100, MaxSegments: 4})
	if h.GrowSize() != minGrowSize {
		t.Fatalf("GrowSize = %d, want %d", h.GrowSize(), minGrowSize)
	}
	var offs []uint64
	for h.Segments() < 4 {
		off, err := h.Alloc(1024)
		if err != nil {
			t.Fatalf("alloc with %d of 4 segments: %v", h.Segments(), err)
		}
		offs = append(offs, off)
	}
	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Segments() != 4 || r.Bump() != h.Bump() {
		t.Fatalf("recovered %d segments, bump %d; want 4, %d", r.Segments(), r.Bump(), h.Bump())
	}
	if next, _ := r.Alloc(1024); next <= offs[len(offs)-1] {
		t.Fatalf("recovered heap handed out %d at or below live block %d", next, offs[len(offs)-1])
	}
}

// TestRecoverBadHeap: every way an image can fail to be a heap — nothing
// there, someone else's magic, geometry the header contradicts, fewer bytes
// than it commits, a free list that never ends, an undo log no UndoBegin
// wrote — is ErrBadHeap: no panic, no fall-back allocator, and the image is
// not written (the garbage undo status used to be disarmed silently).
func TestRecoverBadHeap(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 4)
	off, _ := h.Alloc(128)
	h.Free(off, 128)
	if err := h.Grow(); err != nil {
		t.Fatal(err)
	}
	good := h.CrashImage(nil, 0)
	mustRecover(t, good)
	const hdr = seg0HdrOff
	poke := func(off, v uint64) func([]uint64) []uint64 {
		return func(img []uint64) []uint64 { img[off/WordSize] = v; return img }
	}
	cases := []struct {
		name string
		edit func([]uint64) []uint64
	}{
		{"zeroed image", func(img []uint64) []uint64 { return make([]uint64, len(img)) }},
		{"empty image", func([]uint64) []uint64 { return nil }},
		{"foreign magic", poke(hdr+hdrMagicOff, 0x524e545245453031)},
		{"seg0 != segSize", poke(hdr+hdrSeg0SizeOff, 1<<17)},
		{"nsegs > maxSegs", poke(hdr+hdrNsegsOff, 5)},
		{"nsegs huge", poke(hdr+hdrNsegsOff, 1<<62)},
		{"grow size zero", poke(hdr+hdrGrowSizeOff, 0)},
		{"image shorter than committed", func(img []uint64) []uint64 { return img[:len(img)-8] }},
		{"cyclic free list", poke(off, off)},
		{"undo status beyond the log", poke(hdr+hdrUndoOff, undoRecs+1)},
		{"undo status all ones", poke(hdr+hdrUndoOff, ^uint64(0))},
		{"armed undo record outside the heap", func(img []uint64) []uint64 {
			img[(hdr+hdrUndoOff)/WordSize] = 1
			img[(hdr+hdrUndoOff+8)/WordSize] = 1 << 40
			return img
		}},
	}
	for _, tc := range cases {
		img := tc.edit(append([]uint64(nil), good...))
		before := append([]uint64(nil), img...)
		r, err := Recover(img, Config{})
		if !errors.Is(err, ErrBadHeap) || r != nil {
			t.Errorf("%s: Recover = %v, %v; want ErrBadHeap", tc.name, r, err)
		}
		if !reflect.DeepEqual(img, before) {
			t.Errorf("%s: Recover wrote to the image", tc.name)
		}
	}
}

// A freed block survives crash recovery on the persistent free list and is
// handed out again, and the bump mark is durable.
func TestHeapFreeReuseSurvivesCrash(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	a1, err := h.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := h.Alloc(128)
	h.Write8(a2, 77)
	h.Persist(a2, 8)
	h.Free(a1, 128)
	bump := h.Bump()

	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Bump() != bump {
		t.Fatalf("bump not durable: %d != %d", r.Bump(), bump)
	}
	if got, _ := r.Alloc(128); got != a1 {
		t.Fatalf("freed block not reused after recovery: got %d want %d", got, a1)
	}
	if next, _ := r.Alloc(128); next <= a2 {
		t.Fatalf("allocator handed out live block space: %d overlaps %d", next, a2)
	}
	if r.Read8(a2) != 77 {
		t.Fatal("live data lost")
	}
}

func TestUndoRollbackOnCrash(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	off, _ := h.Alloc(64)
	h.Write8(off, 5)
	h.Write8(off+8, 6)
	h.Persist(off, 16)

	// An undo window opened but never committed: recovery must restore the
	// pre-window values.
	h.UndoBegin(off, off+8)
	h.MetaWrite8(off, 99)
	h.MetaWrite8(off+8, 100)
	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Read8(off) != 5 || r.Read8(off+8) != 6 {
		t.Fatalf("uncommitted window not rolled back: %d/%d", r.Read8(off), r.Read8(off+8))
	}

	// Committed window: the new values stick.
	h.UndoCommit()
	r = mustRecover(t, h.CrashImage(nil, 0))
	if r.Read8(off) != 99 || r.Read8(off+8) != 100 {
		t.Fatalf("committed window rolled back: %d/%d", r.Read8(off), r.Read8(off+8))
	}
}

func TestGrowOnDemand(t *testing.T) {
	h := newTestHeap(t, 1<<16, 1<<16, 3)
	if h.Segments() != 1 {
		t.Fatalf("fresh heap has %d segments", h.Segments())
	}
	var offs []uint64
	for h.Segments() == 1 {
		off, err := h.Alloc(4096)
		if err != nil {
			t.Fatalf("alloc before MaxSegments failed: %v", err)
		}
		h.Write8(off, off)
		h.Persist(off, 8)
		offs = append(offs, off)
	}
	if h.Segments() != 2 {
		t.Fatalf("segments = %d", h.Segments())
	}
	last := offs[len(offs)-1]
	if h.segIndex(last) != 1 {
		t.Fatalf("block %d not in grown segment", last)
	}
	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Segments() != 2 || r.Size() != h.Size() {
		t.Fatalf("growth not durable: %d segs, %d bytes", r.Segments(), r.Size())
	}
	for _, off := range offs {
		if r.Read8(off) != off {
			t.Fatalf("data at %d lost across grow+recover", off)
		}
	}
}

func TestGrowExhaustionIsTypedAndRetrySafe(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	var err error
	for i := 0; i < 1<<12; i++ {
		if _, err = h.Alloc(1024); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("exhaustion error = %v, want ErrOutOfMemory", err)
	}
	// The failure is retry-safe: freeing makes the same alloc succeed.
	if err := h.CheckHeap(); err != nil {
		t.Fatalf("heap inconsistent after exhaustion: %v", err)
	}
	off, err := func() (uint64, error) {
		o, e := h.Alloc(1024)
		return o, e
	}()
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("exhausted heap granted an alloc")
	}
	_ = off
}

// A crash after the new segment's header is persisted but before the nsegs
// cutover in segment 0 must recover to the pre-grow heap.
func TestGrowCrashBeforeCutover(t *testing.T) {
	h := newTestHeap(t, 1<<16, 1<<16, 3)
	sizeBefore := h.Size()
	n := h.Segments()
	_, end := h.segSpan(n)
	h.committedW.Store(end / WordSize)
	h.formatSeg(n) // crash here: header durable, cutover flip never ran

	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Segments() != n || r.Size() != sizeBefore {
		t.Fatalf("uncommitted segment not discarded: %d segs, %d bytes", r.Segments(), r.Size())
	}
	if err := r.Grow(); err != nil {
		t.Fatalf("re-grow after truncated recovery: %v", err)
	}
	if r.Segments() != n+1 {
		t.Fatal("re-grow did not commit")
	}
}

// Satellite: double and overlapping frees are detected in debug mode.
func TestDoubleFreeDetected(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	off, _ := h.Alloc(128)
	h.Free(off, 128)
	mustPanic(t, "double free", func() { h.Free(off, 128) })
}

func TestOverlappingFreeDetected(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	o1, _ := h.Alloc(64)
	o2, _ := h.Alloc(64)
	h.Free(o1, 128) // spans both blocks; first free of these lines
	mustPanic(t, "overlapping free", func() { h.Free(o2, 64) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s not detected", what)
		}
	}()
	f()
}

// Satellite regression: Zero used to bypass the latency model entirely.
// With a store cost configured it must now charge like WriteRange.
func TestZeroChargesStoreLatency(t *testing.T) {
	lat := LatencyModel{StorePerLine: 200 * time.Microsecond}
	a := New(Config{Size: 4096, Latency: lat})
	t0 := time.Now()
	a.Zero(256, 4*LineSize)
	if el := time.Since(t0); el < 700*time.Microsecond {
		t.Fatalf("Zero charged no store latency: %v", el)
	}
	t0 = time.Now()
	a.WriteRange(256, make([]byte, 4*LineSize))
	if el := time.Since(t0); el < 700*time.Microsecond {
		t.Fatalf("WriteRange charged no store latency: %v", el)
	}
}

func TestCheckHeapCatchesCorruption(t *testing.T) {
	// Every case frees one block of the given size and then points its
	// class head at a block no allocation could have produced. The bump
	// mark is global and monotone, so a free block ending above it — in
	// the mark's own segment or in a later committed one — was never
	// handed out, and popping it would alias a later bump allocation.
	cases := []struct {
		name string
		size uint64
		head func(h *Heap) uint64
	}{
		{"starts above the mark", 128, func(h *Heap) uint64 { return h.Bump() + 4096 }},
		{"in a later segment than the mark", 128, func(h *Heap) uint64 { return h.dataStart(1) + 1024 }},
		{"straddles the mark", 256, func(h *Heap) uint64 { return h.Bump() - 128 }},
	}
	for _, tc := range cases {
		h := newTestHeap(t, 1<<16, 1<<16, 2)
		off, _ := h.Alloc(tc.size)
		h.Free(off, tc.size)
		if err := h.Grow(); err != nil {
			t.Fatal(err)
		}
		if err := h.CheckHeap(); err != nil {
			t.Fatalf("%s: healthy heap flagged: %v", tc.name, err)
		}
		if h.segIndex(h.Bump()) != 0 {
			t.Fatalf("%s: the mark left segment 0", tc.name)
		}
		head := tc.head(h)
		h.MetaFlip8(seg0HdrOff+hdrClassOff+uint64(h.findClass(tc.size))*16+8, head)
		if h.CheckHeap() == nil {
			t.Errorf("%s: free block [%d,%d) with the mark at %d not flagged", tc.name, head, head+tc.size, h.Bump())
		}
		if _, err := Recover(h.CrashImage(nil, 0), Config{}); !errors.Is(err, ErrBadHeap) {
			t.Errorf("%s: Recover of an image CheckHeap rejects returned %v, want ErrBadHeap", tc.name, err)
		}
	}
}

// Header words live inside the arena's address space, so raw Write8 can
// scribble over them. Recovery of such an image is ErrBadHeap or a heap whose
// metadata checks out — never a panic in the capacity arithmetic or an
// absurd allocation — and when it recovers the data outside the clobbered
// word still reads back. The words no code reads (the three retired
// mapping-address words, the spare word of line 0, lines 5-7) must not
// decide: whatever they hold, the image recovers. Regression for a makeslice
// overflow when a garbage hdrMaxSegsOff/hdrGrowSizeOff claimed a near-2^64
// capacity.
func TestRecoverGarbageHeader(t *testing.T) {
	hostile := []uint64{
		0xffffffffffffffff, // all-ones: overflow bait for the capacity product
		0xe37a2ca18c97e1e9, // the quick.Check input that first tripped the panic
		1 << 62,            // huge but line-aligned: passes the %LineSize checks
		0,                  // zero: trips the nsegs/maxSegs >= 1 floor instead
	}
	unread := func(off uint64) bool {
		return off == 56 || off == hdrRsvd0Off || off == hdrRsvd1Off || off == hdrRsvd2Off || off >= 5*LineSize
	}
	const probe = uint64(DataStart) + 256 // user word clear of the header
	for word := uint64(0); word < hdrSize/WordSize; word++ {
		for _, v := range hostile {
			h := newTestHeap(t, 1<<16, 4096, 4)
			h.Write8(probe, 0xfeedface)
			h.Persist(probe, 8)
			off := seg0HdrOff + word*WordSize
			h.Write8(off, v)
			h.Persist(off, 8)
			r, err := Recover(h.CrashImage(nil, 0), Config{})
			if err != nil {
				if !errors.Is(err, ErrBadHeap) || unread(word*WordSize) {
					t.Fatalf("header word %d = %#x: Recover returned %v", word, v, err)
				}
				continue
			}
			if err := r.CheckHeap(); err != nil {
				t.Fatalf("header word %d = %#x: recovered heap fails CheckHeap: %v", word, v, err)
			}
			if got := r.Read8(probe); got != 0xfeedface {
				t.Fatalf("header word %d = %#x: probe read %#x after recovery", word, v, got)
			}
		}
	}
}
