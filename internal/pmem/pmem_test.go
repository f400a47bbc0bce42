package pmem

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTest(t *testing.T, size uint64) *Arena {
	t.Helper()
	return New(Config{Size: size})
}

func TestNewRoundsUpAndReservesRoot(t *testing.T) {
	a := New(Config{Size: 100})
	if a.Size()%LineSize != 0 {
		t.Fatalf("size %d not line aligned", a.Size())
	}
	off, err := a.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if off < RootSize {
		t.Fatalf("alloc %d overlaps root line", off)
	}
}

func TestWriteReadWord(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+128, 0xdeadbeefcafe)
	if got := a.Read8(DataStart + 128); got != 0xdeadbeefcafe {
		t.Fatalf("Read8 = %#x", got)
	}
	// Unpersisted data must not be in the NVM image.
	if got := a.NVMRead8(DataStart + 128); got != 0 {
		t.Fatalf("NVM image has unpersisted data: %#x", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	a := newTest(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on misaligned access")
		}
	}()
	a.Write8(DataStart+129, 1)
}

func TestOutOfRangePanics(t *testing.T) {
	a := newTest(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range access")
		}
	}()
	a.Read8(1 << 30)
}

func TestPersistMakesDurable(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+256, 42)
	a.Write8(DataStart+264, 43)
	a.Persist(DataStart+256, 16)
	if a.NVMRead8(DataStart+256) != 42 || a.NVMRead8(DataStart+264) != 43 {
		t.Fatal("persist did not reach NVM image")
	}
	s := a.Stats()
	if s.Persists != 1 {
		t.Fatalf("Persists = %d, want 1", s.Persists)
	}
	if s.LinesFlushed != 1 {
		t.Fatalf("LinesFlushed = %d, want 1", s.LinesFlushed)
	}
	if s.Fences != 1 {
		t.Fatalf("Fences = %d, want 1", s.Fences)
	}
}

func TestPersistSpanningLines(t *testing.T) {
	a := newTest(t, 4096)
	// Range crossing a line boundary flushes two lines but is one persist.
	a.Write8(DataStart+120, 7)
	a.Write8(DataStart+128, 8)
	a.Persist(DataStart+120, 16)
	s := a.Stats()
	if s.Persists != 1 || s.LinesFlushed != 2 {
		t.Fatalf("persists=%d lines=%d, want 1/2", s.Persists, s.LinesFlushed)
	}
}

func TestLineRoundTrip(t *testing.T) {
	a := newTest(t, 4096)
	var src, dst [LineSize]byte
	for i := range src {
		src[i] = byte(i * 3)
	}
	a.WriteLine(DataStart+512, &src)
	a.ReadLine(DataStart+512+8, &dst) // any offset within the line reads the whole line
	if src != dst {
		t.Fatalf("line mismatch: %v != %v", src, dst)
	}
}

func TestRangeRoundTrip(t *testing.T) {
	a := newTest(t, 4096)
	src := make([]byte, 160)
	for i := range src {
		src[i] = byte(255 - i)
	}
	a.WriteRange(DataStart+192, src)
	dst := make([]byte, 160)
	a.ReadRange(DataStart+192, 160, dst)
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: %d != %d", i, src[i], dst[i])
		}
	}
}

func TestDirtyTracking(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+1024, 5)
	found := false
	for _, off := range a.DirtyLines() {
		if off == DataStart+1024 {
			found = true
		}
	}
	if !found {
		t.Fatal("written line not reported dirty")
	}
	a.Persist(DataStart+1024, 8)
	for _, off := range a.DirtyLines() {
		if off == DataStart+1024 {
			t.Fatal("persisted line still dirty")
		}
	}
}

func TestEvictLine(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+2048, 99)
	a.EvictLine(DataStart + 2048)
	if a.NVMRead8(DataStart+2048) != 99 {
		t.Fatal("evicted line not in NVM image")
	}
	if a.Stats().Persists != 0 {
		t.Fatal("eviction must not count as a persistent instruction")
	}
}

func TestCrashImageExcludesUnflushed(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+256, 1)
	a.Persist(DataStart+256, 8)
	a.Write8(DataStart+320, 2) // dirty, never persisted
	img := a.CrashImage(nil, 0)
	r := mustRecover(t, img)
	if r.Read8(DataStart+256) != 1 {
		t.Fatal("persisted word lost in crash")
	}
	if r.Read8(DataStart+320) != 0 {
		t.Fatal("unpersisted word survived crash with evictProb=0")
	}
}

func TestCrashImageEviction(t *testing.T) {
	a := newTest(t, 1<<16)
	for i := 0; i < 100; i++ {
		a.Write8(uint64(DataStart+i*LineSize), uint64(i+1))
	}
	rng := rand.New(rand.NewSource(1))
	img := a.CrashImage(rng, 0.5)
	r := mustRecover(t, img)
	survived := 0
	for i := 0; i < 100; i++ {
		if r.Read8(uint64(DataStart+i*LineSize)) != 0 {
			survived++
		}
	}
	if survived == 0 || survived == 100 {
		t.Fatalf("eviction should include a strict subset, got %d/100", survived)
	}
}

func TestRecoverImagesEqual(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+256, 7)
	a.Persist(DataStart+256, 8)
	r := mustRecover(t, a.CrashImage(nil, 0))
	// After reboot cache and nvm agree; nothing dirty.
	if len(r.DirtyLines()) != 0 {
		t.Fatal("recovered arena has dirty lines")
	}
	if r.Read8(DataStart+256) != 7 || r.NVMRead8(DataStart+256) != 7 {
		t.Fatal("recovered images disagree")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	a := newTest(t, 1<<16)
	o1, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := a.Alloc(128)
	if o2 == o1 {
		t.Fatal("distinct allocations alias")
	}
	if o1%LineSize != 0 || o2%LineSize != 0 {
		t.Fatal("allocations not line aligned")
	}
	a.Free(o1, 128)
	o3, _ := a.Alloc(128)
	if o3 != o1 {
		t.Fatalf("free list not reused: got %d want %d", o3, o1)
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(Config{Size: 4 * LineSize})
	var err error
	for i := 0; i < 10; i++ {
		_, err = a.Alloc(LineSize)
		if err != nil {
			break
		}
	}
	if err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestHooksFire(t *testing.T) {
	a := newTest(t, 4096)
	var before, after int
	a.SetHooks(&Hooks{
		BeforePersist: func(off, size uint64) { before++ },
		AfterPersist:  func(off, size uint64) { after++ },
	})
	a.Write8(DataStart+256, 1)
	a.Persist(DataStart+256, 8)
	if before != 1 || after != 1 {
		t.Fatalf("hooks fired %d/%d times", before, after)
	}
	a.SetHooks(nil)
	a.Persist(DataStart+256, 8)
	if before != 1 || after != 1 {
		t.Fatal("cleared hooks still fired")
	}
}

func TestBeforeHookSeesPreFlushState(t *testing.T) {
	a := newTest(t, 4096)
	var seen uint64 = 1
	a.SetHooks(&Hooks{BeforePersist: func(off, size uint64) {
		seen = a.NVMRead8(DataStart + 256)
	}})
	a.Write8(DataStart+256, 9)
	a.Persist(DataStart+256, 8)
	if seen != 0 {
		t.Fatalf("BeforePersist ran after flush (saw %d)", seen)
	}
}

// TestLatencyCharged: a persist never returns before its modeled time, with
// and without drain lanes, however its copies and the scheduler interleave.
func TestLatencyCharged(t *testing.T) {
	for name, tc := range map[string]struct {
		m    LatencyModel
		want time.Duration // of a 2-line persist
	}{
		"flush+fence": {LatencyModel{FlushPerLine: 200 * time.Microsecond, Fence: 100 * time.Microsecond}, 500 * time.Microsecond},
		"drain":       {LatencyModel{FlushPerLine: 50 * time.Microsecond, Fence: 100 * time.Microsecond, DrainPerLine: 150 * time.Microsecond}, 500 * time.Microsecond},
		"sub-tail":    {LatencyModel{Fence: 500 * time.Nanosecond}, 500 * time.Nanosecond},
	} {
		a := New(Config{Size: 4096, Latency: tc.m})
		for i := 0; i < 20; i++ {
			a.Write8(DataStart+120, uint64(i))
			t0 := time.Now()
			a.Persist(DataStart+120, 16)
			if el := time.Since(t0); el < tc.want {
				t.Fatalf("%s: persist %d returned after %v, modeled %v", name, i, el, tc.want)
			}
		}
	}
}

// TestStallYieldsOnlyBeyondPollTail: a stall no longer than pollTail — the
// NVDIMM fence — never enters the scheduler; a long one yields its core.
func TestStallYieldsOnlyBeyondPollTail(t *testing.T) {
	if y := stallUntil(0); y != 0 {
		t.Fatalf("free stall yielded %d times", y)
	}
	for i := 0; i < 100; i++ {
		deadline := now() + 500
		if y := stallUntil(deadline); y != 0 {
			t.Fatalf("500 ns stall yielded %d times", y)
		}
		if late := now() - deadline; late < 0 {
			t.Fatalf("500 ns stall returned %d ns early", -late)
		}
	}
	deadline := now() + int64(50*time.Microsecond)
	if y := stallUntil(deadline); y == 0 {
		t.Fatal("50 µs stall never yielded")
	}
	if late := now() - deadline; late < 0 {
		t.Fatalf("50 µs stall returned %d ns early", -late)
	}
}

// TestDrainLanesOverlapThenQueue: PersistStreams: 2 drains two concurrent
// 4-line persists side by side and makes the third wait for a lane; on one
// lane three queue end to end. A stall never returns early, so the lower
// bounds hold on every run on any host. The upper bound is the overlap
// itself: only a host hiccup longer than a whole 4-line drain (1.2 ms) can
// push a run past it, so one run in ten under it proves the lanes overlap —
// serialized lanes would miss it every time.
func TestDrainLanesOverlapThenQueue(t *testing.T) {
	const drain = 300 * time.Microsecond
	run := func(streams int) time.Duration {
		a := New(Config{Size: 1 << 16, Latency: LatencyModel{DrainPerLine: drain, PersistStreams: streams}})
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := uint64(0); w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Persist(DataStart+w*4096, 4*LineSize)
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	if el := run(1); el < 3*4*drain {
		t.Fatalf("three 4-line persists on one lane took %v, want at least %v", el, 3*4*drain)
	}
	var el time.Duration
	for try := 0; try < 10; try++ {
		if el = run(2); el < 2*4*drain {
			t.Fatalf("three 4-line persists on two lanes took %v, want at least %v", el, 2*4*drain)
		}
		if el < 3*4*drain {
			return
		}
	}
	t.Fatalf("three 4-line persists on two lanes never overlapped: last took %v, want under %v", el, 3*4*drain)
}

// TestSetLatencyUnderPersister: SetLatency swaps the model whole, so it may
// race a persister (the race detector is the assertion; `make race`).
func TestSetLatencyUnderPersister(t *testing.T) {
	a := New(Config{Size: 1 << 16, Latency: ProfileOptaneDIMM})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < 2000; i++ {
			a.Write8(DataStart, i)
			a.Persist(DataStart, 8)
			a.Fence()
		}
	}()
	models := []LatencyModel{ProfileNVDIMM, ProfileOptaneDIMM, {}}
	for i := 0; ; i++ {
		select {
		case <-done:
			if s := a.Stats(); s.Persists != 2000 || s.Fences != 4000 {
				t.Fatalf("counters moved with the model: %+v", s)
			}
			return
		default:
			a.SetLatency(models[i%3])
			if got := a.Latency(); got != models[i%3] {
				t.Fatalf("Latency() = %+v right after SetLatency(%+v)", got, models[i%3])
			}
		}
	}
}

// TestPersistStreamChargedLikePersist: the two persistent instructions share
// one body, so for the same range they move the same counters, fire the same
// hook calls with the same arguments, and hold the arena's one drain engine
// for the same per-line occupancy (two concurrent callers serialize on it).
func TestPersistStreamChargedLikePersist(t *testing.T) {
	const drain = 300 * time.Microsecond
	type call struct {
		after     bool
		off, size uint64
	}
	run := func(instr func(a *Arena, off, size uint64)) (Stats, []call, time.Duration) {
		a := New(Config{Size: 1 << 16, Latency: LatencyModel{DrainPerLine: drain, PersistStreams: 1}})
		var calls []call
		a.SetHooks(&Hooks{
			BeforePersist: func(off, size uint64) { calls = append(calls, call{false, off, size}) },
			AfterPersist:  func(off, size uint64) { calls = append(calls, call{true, off, size}) },
		})
		instr(a, DataStart+8, 4*LineSize) // unaligned start: five lines
		instr(a, DataStart+1024, 0)       // empty range: still one line, one fence
		a.SetHooks(nil)
		stats := a.Stats()
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := uint64(0); w < 2; w++ {
			wg.Add(1)
			go func(w uint64) {
				defer wg.Done()
				instr(a, DataStart+w*4096, 4*LineSize)
			}(w)
		}
		wg.Wait()
		return stats, calls, time.Since(t0)
	}
	ps, pc, pt := run((*Arena).Persist)
	ss, sc, st := run((*Arena).PersistStream)
	if ps != ss || ps.Persists != 2 || ps.LinesFlushed != 6 || ps.Fences != 2 {
		t.Fatalf("stats differ or are wrong: Persist %+v, PersistStream %+v", ps, ss)
	}
	if !reflect.DeepEqual(pc, sc) || len(pc) != 4 {
		t.Fatalf("hook calls differ: Persist %+v, PersistStream %+v", pc, sc)
	}
	for name, el := range map[string]time.Duration{"Persist": pt, "PersistStream": st} {
		if el < 2*4*drain {
			t.Fatalf("%s: two 4-line instructions on one drain engine took %v, want at least %v", name, el, 2*4*drain)
		}
	}
}

func TestZero(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+512, 11)
	a.Write8(DataStart+520, 12)
	a.Zero(DataStart+512, 64)
	if a.Read8(DataStart+512) != 0 || a.Read8(DataStart+520) != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestConcurrentDisjointWrites(t *testing.T) {
	a := newTest(t, 1<<20)
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(DataStart) + uint64(w)*per*8
			for i := uint64(0); i < per; i++ {
				a.Write8(base+i*8, uint64(w)<<32|i)
				a.Persist(base+i*8, 8)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		base := uint64(DataStart) + uint64(w)*per*8
		for i := uint64(0); i < per; i++ {
			if got := a.NVMRead8(base + i*8); got != uint64(w)<<32|i {
				t.Fatalf("worker %d word %d = %#x", w, i, got)
			}
		}
	}
	if s := a.Stats(); s.Persists != workers*per {
		t.Fatalf("Persists = %d, want %d", s.Persists, workers*per)
	}
}

// Property: a persisted word always equals what was last written before the
// persist, regardless of the write pattern. Slots start past the heap
// allocator's header lines: a raw write inside the metadata region is not
// user data, and recovery rejects an image whose header it garbled.
func TestQuickPersistDurability(t *testing.T) {
	a := newTest(t, 1<<16)
	f := func(slot uint8, v uint64) bool {
		off := uint64(DataStart) + uint64(slot)*8
		a.Write8(off, v)
		a.Persist(off, 8)
		img := a.CrashImage(nil, 0)
		r := mustRecover(t, img)
		return r.Read8(off) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: words written but not persisted never appear in a no-eviction
// crash image unless they share a line with a persisted word.
func TestQuickUnpersistedIsolation(t *testing.T) {
	f := func(vals [8]uint64) bool {
		a := New(Config{Size: 1 << 12})
		// Line A persisted, line B not.
		for i, v := range vals {
			a.Write8(uint64(DataStart+i*8), v|1)          // line A
			a.Write8(uint64(DataStart+LineSize+i*8), v|1) // line B
		}
		a.Persist(DataStart, LineSize)
		r := mustRecover(t, a.CrashImage(nil, 0))
		for i, v := range vals {
			if r.Read8(uint64(DataStart+i*8)) != v|1 {
				return false
			}
			if r.Read8(uint64(DataStart+LineSize+i*8)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStats(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+256, 1)
	a.Persist(DataStart+256, 8)
	a.ResetStats()
	if s := a.Stats(); s.Persists != 0 || s.WordsWritten != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

// TestCrashImageSeededDeterminism: the eviction model must be fully
// replayable — the same dirty state and the same seed produce a
// byte-identical crash image, so a logged seed reproduces any explorer
// failure exactly.
func TestCrashImageSeededDeterminism(t *testing.T) {
	build := func() *Arena {
		a := newTest(t, 64<<10)
		for i := uint64(0); i < 400; i++ {
			a.Write8(DataStart+i*8, i*2654435761)
			if i%5 == 0 {
				a.Persist(DataStart+i*8, 8)
			}
		}
		return a
	}
	a1, a2 := build(), build()
	img1 := a1.CrashImage(rand.New(rand.NewSource(77)), 0.4)
	img2 := a2.CrashImage(rand.New(rand.NewSource(77)), 0.4)
	if len(img1) != len(img2) {
		t.Fatalf("image sizes differ: %d vs %d", len(img1), len(img2))
	}
	for i := range img1 {
		if img1[i] != img2[i] {
			t.Fatalf("same seed produced different images at word %d: %#x vs %#x", i, img1[i], img2[i])
		}
	}
	// A different seed must pick a different eviction subset (with ~400
	// dirty lines the collision probability is negligible).
	img3 := build().CrashImage(rand.New(rand.NewSource(78)), 0.4)
	same := true
	for i := range img1 {
		if img1[i] != img3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical eviction subsets")
	}
}

func TestFenceHookAndEvictionCounters(t *testing.T) {
	a := newTest(t, 4096)
	fences := 0
	a.SetHooks(&Hooks{OnFence: func() { fences++ }})
	a.Fence()
	a.Fence()
	a.SetHooks(nil)
	if fences != 2 {
		t.Fatalf("OnFence fired %d times, want 2", fences)
	}
	a.Write8(DataStart+256, 1)
	a.EvictLine(DataStart + 256)
	_ = a.CrashImage(rand.New(rand.NewSource(1)), 1.0) // no dirty lines left
	a.Write8(DataStart+320, 2)
	_ = a.CrashImage(rand.New(rand.NewSource(1)), 1.0) // evicts the dirty line
	s := a.Stats()
	if s.CrashImages != 2 {
		t.Fatalf("CrashImages = %d, want 2", s.CrashImages)
	}
	if s.EvictedLines != 2 {
		t.Fatalf("EvictedLines = %d, want 2 (one EvictLine + one image merge)", s.EvictedLines)
	}
}

func TestOverlayCacheLine(t *testing.T) {
	a := newTest(t, 4096)
	a.Write8(DataStart+256, 0xdead)
	a.Persist(DataStart+256, 8)
	a.Write8(DataStart+256, 0xbeef) // dirty again, nvm still holds 0xdead
	a.Write8(DataStart+320, 0xf00d) // dirty, never persisted
	img := a.CrashImage(nil, 0)
	if img[(DataStart+256)/WordSize] != 0xdead || img[(DataStart+320)/WordSize] != 0 {
		t.Fatalf("pre image wrong: %#x %#x", img[(DataStart+256)/WordSize], img[(DataStart+320)/WordSize])
	}
	a.OverlayCacheLine(img, DataStart+320)
	if img[(DataStart+320)/WordSize] != 0xf00d {
		t.Fatalf("overlay missed: %#x", img[(DataStart+320)/WordSize])
	}
	if img[(DataStart+256)/WordSize] != 0xdead {
		t.Fatalf("overlay touched other line: %#x", img[(DataStart+256)/WordSize])
	}
}
