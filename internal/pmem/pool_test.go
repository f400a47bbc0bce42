package pmem

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// slotsMade returns how many pre-image slots each pool has ever handed out.
func slotsMade(a *Arena) (made [nPools]uint32) {
	for k := range a.pools {
		made[k] = a.pools[k].made.Load()
	}
	return made
}

// TestFreshLineTakesNoSlot: a store into a fresh line, or into a clean line
// that holds only zeros, leaves a zero pre-image and takes no slot; a store
// into a clean line holding data takes one, which its flush gives back for
// the next capture in that pool to reuse.
func TestFreshLineTakesNoSlot(t *testing.T) {
	a := newTest(t, 64<<10)
	off := uint64(8 << 10)
	none := [nPools]uint32{}
	var line [LineSize]byte
	line[0] = 1
	a.Write8(off, 7)
	a.WriteLine(off+LineSize, &line)
	a.WriteRange(off+2*LineSize, make([]byte, 3*LineSize))
	a.Zero(off+5*LineSize, LineSize)
	if made := slotsMade(a); made != none {
		t.Fatalf("stores into fresh lines took slots: %v", made)
	}
	if got := a.NVMRead8(off); got != 0 {
		t.Fatalf("a fresh line's durable word reads %#x, want 0", got)
	}
	a.Persist(off, 6*LineSize)
	a.Write8(off+2*LineSize, 1)
	a.Zero(off+3*LineSize, 3*LineSize)
	if made := slotsMade(a); made != none {
		t.Fatalf("stores into clean zero lines took slots: %v", made)
	}
	a.Write8(off, 8)
	want := none
	want[off/LineSize/32%nPools] = 1
	if made := slotsMade(a); made != want {
		t.Fatalf("a store into a clean line holding data: slots made %v, want %v", made, want)
	}
	if got := a.NVMRead8(off); got != 7 {
		t.Fatalf("durable word %#x, want the pre-image 7", got)
	}
	a.Persist(off, LineSize)
	a.Write8(off+LineSize+WordSize, 9)
	if made := slotsMade(a); made != want {
		t.Fatalf("a capture after a flush made a new slot instead of reusing the freed one: %v", made)
	}
	if got := a.NVMRead8(off + LineSize); got != 1 {
		t.Fatalf("reused slot holds %#x, want the line's pre-image 1", got)
	}
}

// TestSlotsBoundedByPeakDirty drives random stores, streams and persists over
// the lines of three pools and requires, after every step, that no pool has
// ever made more slots than its peak count of dirty lines: a freed slot is
// reused before a new one is made, so resident slots track the peak.
func TestSlotsBoundedByPeakDirty(t *testing.T) {
	const lo, hi = 32, 4 * 32 // the lines of pools 1, 2 and 3
	a := newTest(t, hi*LineSize)
	rng := rand.New(rand.NewSource(1))
	var peak [nPools]uint32
	for step := 0; step < 20000; step++ {
		off := uint64(lo+rng.Intn(hi-lo)) * LineSize
		switch rng.Intn(4) {
		case 0, 1:
			a.Write8(off+uint64(rng.Intn(WordsPerLine))*WordSize, rng.Uint64()|1)
		case 2:
			src := make([]byte, (rng.Intn(3*WordsPerLine)+1)*WordSize)
			rng.Read(src)
			if end := off + uint64(len(src)); end <= hi*LineSize {
				a.WriteStream(off, src)
			}
		case 3:
			n := uint64(rng.Intn(8) + 1)
			a.Persist(off, min(n*LineSize, hi*LineSize-off))
		}
		var dirtyNow [nPools]uint32
		for _, d := range a.DirtyLines() {
			dirtyNow[d/LineSize/32%nPools]++
		}
		made := slotsMade(a)
		for k := range peak {
			peak[k] = max(peak[k], dirtyNow[k])
			if made[k] > peak[k] {
				t.Fatalf("step %d: pool %d made %d slots, peak dirty lines %d", step, k, made[k], peak[k])
			}
		}
	}
	if made := slotsMade(a); made[1] == 0 || made[2] == 0 || made[3] == 0 {
		t.Fatalf("the three pools were not exercised: %v", made)
	}
}

// TestCrashImageRacesPool: writers cycle their own lines of one pool through
// captures (line stores into clean lines), streams into dirty lines and
// flushes, so slots are released and retaken all the time, while the test
// takes crash images and durable reads. Every word of every line holds that
// line's tag, in its cache content and its pre-image alike (or zero, before
// its first store): a slot read after its line gave it back would show
// another line's.
func TestCrashImageRacesPool(t *testing.T) {
	const writers, per, images = 2, 12, 20000
	a := newTest(t, 4096)
	first := uint64(DataStart / LineSize) // lines first..first+24 share pool 0
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := uint64(0); g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var words [WordsPerLine]uint64
			for r := uint64(1); !stop.Load(); r++ {
				for l := first + g*per; l < first+(g+1)*per; l++ {
					for i := range words {
						words[i] = l<<32 | r
					}
					a.WriteLineWords(l*LineSize, &words)
					if rng.Intn(2) == 0 {
						a.Write8Stream(l*LineSize+uint64(rng.Intn(WordsPerLine))*WordSize, l<<32|r)
					}
					a.Persist(l*LineSize, LineSize)
				}
				runtime.Gosched() // a reader waiting out a hold gets its turn now, not at preemption
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)
	check := func(what string, off, v uint64) {
		if l := off / LineSize; v != 0 && v>>32 != l {
			t.Fatalf("%s: line %d word %d holds line %d's tag %#x", what, l, off%LineSize/WordSize, v>>32, v)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for n := 0; n < images; n++ {
		img := a.CrashImage(rng, 0.3)
		for off := first * LineSize; off < (first+writers*per)*LineSize; off += WordSize {
			check("crash image", off, img[off/WordSize])
		}
		for i := 0; i < 8; i++ {
			off := (first*WordsPerLine + uint64(rng.Intn(writers*per*WordsPerLine))) * WordSize
			check("NVMRead8", off, a.NVMRead8(off))
		}
	}
}

// TestStreamRacesFlush: each round one writer dirties a shared line with its
// half of the words, then persists it while a streamer lays the other half
// into the dirty line's pre-image with WriteStream and fences it. Both halves
// must be durable when both return, and a crash image then holds the line.
// (The rounds are barriers: a capture reads the whole line, and a streamed
// range is owned by its writer alone until its fence.)
func TestStreamRacesFlush(t *testing.T) {
	const rounds, lines = 300, 4
	a := newTest(t, 4096)
	half := uint64(LineSize / 2)
	for r := uint64(1); r <= rounds; r++ {
		for l := uint64(0); l < lines; l++ {
			off := DataStart + l*LineSize
			for w := uint64(0); w < half/WordSize; w++ {
				a.Write8(off+w*WordSize, r<<8|w)
			}
			for w := uint64(0); r > 1 && w < WordsPerLine; w++ {
				want := (r-1)<<8 | w
				if w >= half/WordSize {
					want = (r-1)<<8 | l<<4 | (w - half/WordSize)
				}
				if got := a.NVMRead8(off + w*WordSize); got != want {
					t.Fatalf("round %d line %d word %d: pre-image %#x, want %#x", r, l, w, got, want)
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.Persist(DataStart, lines*LineSize)
		}()
		go func() {
			defer wg.Done()
			src := make([]byte, half)
			for l := uint64(0); l < lines; l++ {
				for w := uint64(0); w < half/WordSize; w++ {
					putWord(src[w*WordSize:], r<<8|l<<4|w)
				}
				a.WriteStream(DataStart+l*LineSize+half, src)
			}
			a.PersistStream(DataStart, lines*LineSize)
		}()
		wg.Wait()
		img := a.CrashImage(nil, 0)
		for l := uint64(0); l < lines; l++ {
			for w := uint64(0); w < WordsPerLine; w++ {
				off := DataStart + l*LineSize + w*WordSize
				want := r<<8 | w
				if w >= half/WordSize {
					want = r<<8 | l<<4 | (w - half/WordSize)
				}
				if got := a.NVMRead8(off); got != want || img[off/WordSize] != want {
					t.Fatalf("round %d line %d word %d: durable %#x, image %#x, want %#x", r, l, w, got, img[off/WordSize], want)
				}
			}
		}
	}
}
