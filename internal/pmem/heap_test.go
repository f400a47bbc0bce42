package pmem

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"rntree/internal/race"
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
// New builds: the block handed out before the crash, once its owner reports
// it, is not handed out again.
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
	if err := r.MarkLive(off, LineSize); err != nil {
		t.Fatal(err)
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
	for _, off := range offs {
		if err := r.MarkLive(off, 1024); err != nil {
			t.Fatal(err)
		}
	}
	if next, _ := r.Alloc(1024); next <= offs[len(offs)-1] {
		t.Fatalf("recovered heap handed out %d at or below live block %d", next, offs[len(offs)-1])
	}
}

// TestRecoverBadHeap: every way an image can fail to be a heap — nothing
// there, someone else's magic, geometry the header contradicts, fewer bytes
// than it commits — is ErrBadHeap: no panic, no fall-back allocator, and the
// image is not written.
func TestRecoverBadHeap(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 4)
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
		{"seg0 != segSize", poke(hdr+hdrInitSizeOff, 1<<17)},
		{"nsegs > maxSegs", poke(hdr+hdrNsegsOff, 5)},
		{"nsegs huge", poke(hdr+hdrNsegsOff, 1<<62)},
		{"grow size zero", poke(hdr+hdrGrowSizeOff, 0)},
		{"image shorter than committed", func(img []uint64) []uint64 { return img[:len(img)-8] }},
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

// Free space is what the owners do not report: after recovery a block no
// MarkLive reached — freed before the crash or never linked — is handed out
// again, a reported block never is, and the bump mark is durable. MarkLive
// rejects what Alloc could not have handed out and what overlaps a report,
// and panics once the first Alloc has turned the rest into free space.
func TestHeapFreeReuseSurvivesCrash(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	a1, err := h.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := h.Alloc(128)
	a3, _ := h.Alloc(128)
	h.Write8(a2, 77)
	h.Persist(a2, 8)
	h.Free(a3, 128)
	bump := h.Bump()

	r := mustRecover(t, h.CrashImage(nil, 0))
	if r.Bump() != bump {
		t.Fatalf("bump not durable: %d != %d", r.Bump(), bump)
	}
	if err := r.MarkLive(a2, 128); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][2]uint64{{a2 + LineSize, 128}, {a1, 192}, {bump, 64}, {a1 + 8, 64}, {RootSize, 64}} {
		if err := r.MarkLive(bad[0], bad[1]); err == nil {
			t.Errorf("MarkLive(%d, %d) accepted with [%d,%d) reported and the mark at %d", bad[0], bad[1], a2, a2+128, bump)
		}
	}
	if got := r.InUse(); got != 128 {
		t.Fatalf("InUse after reporting one block = %d, want 128", got)
	}
	if got, _ := r.Alloc(128); got != a1 {
		t.Fatalf("unreported block not reused after recovery: got %d want %d", got, a1)
	}
	if got, _ := r.Alloc(128); got != a3 {
		t.Fatalf("block freed before the crash not reused: got %d want %d", got, a3)
	}
	if next, _ := r.Alloc(128); next != bump {
		t.Fatalf("allocator handed out %d, want the mark %d", next, bump)
	}
	if r.Read8(a2) != 77 {
		t.Fatal("live data lost")
	}
	mustPanic(t, "MarkLive after Alloc", func() { _ = r.MarkLive(a2, 128) })
}

// TestAllocatorCosts: free space is volatile, so Free and an Alloc it serves
// persist nothing, a bump Alloc persists exactly its one mark word, and
// neither allocates Go memory once the heap is warm.
func TestAllocatorCosts(t *testing.T) {
	h := newTestHeap(t, 1<<16, 4096, 2)
	persisted := func(what string, want Stats, f func()) {
		t.Helper()
		before := h.Stats()
		f()
		got := h.Stats()
		if d := got.Persists - before.Persists; d != want.Persists {
			t.Errorf("%s: %d persists, want %d", what, d, want.Persists)
		}
		if d := got.LinesFlushed - before.LinesFlushed; d != want.LinesFlushed {
			t.Errorf("%s: %d lines flushed, want %d", what, d, want.LinesFlushed)
		}
		if d := got.WordsWritten - before.WordsWritten; d != want.WordsWritten {
			t.Errorf("%s: %d words written, want %d", what, d, want.WordsWritten)
		}
	}
	var off uint64
	persisted("bump Alloc", Stats{Persists: 1, LinesFlushed: 1, WordsWritten: 1}, func() { off, _ = h.Alloc(256) })
	persisted("Free", Stats{}, func() { h.Free(off, 256) })
	persisted("free-space Alloc", Stats{}, func() {
		if got, _ := h.Alloc(256); got != off {
			t.Errorf("free-space Alloc = %d, want %d", got, off)
		}
	})
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	if n := testing.AllocsPerRun(100, func() {
		h.Free(off, 256)
		off, _ = h.Alloc(256)
	}); n != 0 {
		t.Errorf("Free+Alloc: %v Go allocations per run, want 0", n)
	}
	var offs [16]uint64
	if n := testing.AllocsPerRun(10, func() {
		for i := range offs {
			offs[i], _ = h.Alloc(LineSize)
		}
		for _, o := range offs {
			h.Free(o, LineSize)
		}
	}); n != 0 {
		t.Errorf("Alloc/Free of 16 lines: %v Go allocations per run, want 0", n)
	}
}

// A free fragment smaller than every request — one line below half a heap
// of bumped blocks — must not make each Alloc rescan free space up to the
// mark: once a run length fails to fit, Allocs of that length bump straight
// away until the next Free. Per-Alloc time with the fragment stays within a
// small factor of the time without it (rescanning costs ~50x here).
func TestAllocSkipsUnfittableFreeSpace(t *testing.T) {
	if race.Enabled {
		t.Skip("timing under the race detector's instrumentation")
	}
	const block = 17 * LineSize
	h := newTestHeap(t, 64<<20, 0, 1)
	frag, err := h.Alloc(LineSize)
	if err != nil {
		t.Fatal(err)
	}
	for h.Bump() < 32<<20 {
		if _, err := h.Alloc(block); err != nil {
			t.Fatal(err)
		}
	}
	perAlloc := func() time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			for range 200 {
				if _, err := h.Alloc(block); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start)/200)
		}
		return best
	}
	without := perAlloc()
	h.Free(frag, LineSize)
	if with := perAlloc(); with > 4*without+time.Microsecond {
		t.Fatalf("Alloc with an unfittable free line below the mark: %v, without: %v", with, without)
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

// Double and overlapping frees panic.
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

// Header words live inside the arena's address space, so raw Write8 can
// scribble over them. Recovery of such an image is ErrBadHeap or a heap whose
// metadata checks out — never a panic in the capacity arithmetic or an
// absurd allocation — and when it recovers the data outside the clobbered
// word still reads back. Every word of the one-line header is read: each
// one rejects at least one hostile value. Regression for a makeslice overflow when a garbage
// hdrMaxSegsOff/hdrGrowSizeOff claimed a near-2^64 capacity.
func TestRecoverGarbageHeader(t *testing.T) {
	hostile := []uint64{
		0xffffffffffffffff, // all-ones: overflow bait for the capacity product
		0xe37a2ca18c97e1e9, // the quick.Check input that first tripped the panic
		1 << 62,            // huge but line-aligned: passes the %LineSize checks
		0,                  // zero: trips the nsegs/maxSegs >= 1 floor instead
	}
	const probe = uint64(DataStart) + 256 // user word clear of the header
	for word := uint64(0); word < hdrSize/WordSize; word++ {
		rejected := false
		for _, v := range hostile {
			h := newTestHeap(t, 1<<16, 4096, 4)
			h.Write8(probe, 0xfeedface)
			h.Persist(probe, 8)
			off := seg0HdrOff + word*WordSize
			h.Write8(off, v)
			h.Persist(off, 8)
			r, err := Recover(h.CrashImage(nil, 0), Config{})
			if err != nil {
				if !errors.Is(err, ErrBadHeap) {
					t.Fatalf("header word %d = %#x: Recover returned %v", word, v, err)
				}
				rejected = true
				continue
			}
			if err := r.CheckHeap(); err != nil {
				t.Fatalf("header word %d = %#x: recovered heap fails CheckHeap: %v", word, v, err)
			}
			if got := r.Read8(probe); got != 0xfeedface {
				t.Fatalf("header word %d = %#x: probe read %#x after recovery", word, v, got)
			}
		}
		if !rejected {
			t.Errorf("header word %d: no hostile value rejected, so recovery does not read it", word)
		}
	}
}
