package pmem

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// twoImage is the reference semantics the arena must reproduce: a full nvm
// image next to the cache, which Persist and EvictLine copy a line into and
// streamed stores write through to, with the same counters.
type twoImage struct {
	cache, nvm []uint64
	dirty      []bool
	st         Stats
}

func newTwoImage(a *Arena) *twoImage {
	n := a.Size() / WordSize
	m := &twoImage{cache: make([]uint64, n), nvm: make([]uint64, n), dirty: make([]bool, n/WordsPerLine), st: a.Stats()}
	for i := uint64(0); i < n; i++ {
		m.cache[i], m.nvm[i] = a.Read8(i*WordSize), a.NVMRead8(i*WordSize)
	}
	for _, off := range a.DirtyLines() {
		m.dirty[off/LineSize] = true
	}
	return m
}

func (m *twoImage) store(off, v uint64) {
	m.cache[off/WordSize], m.dirty[off/LineSize] = v, true
	m.st.WordsWritten++
}

func (m *twoImage) stream(off, v uint64) {
	m.cache[off/WordSize], m.nvm[off/WordSize] = v, v
	m.st.WordsWritten++
}

func (m *twoImage) flush(line uint64) {
	copy(m.nvm[line*WordsPerLine:(line+1)*WordsPerLine], m.cache[line*WordsPerLine:])
	m.dirty[line] = false
}

func (m *twoImage) persist(off, size uint64, flush bool) {
	first, last := off/LineSize, (off+max(size, 1)-1)/LineSize
	for l := first; flush && l <= last; l++ {
		m.flush(l)
	}
	m.st.Persists++
	m.st.Fences++
	m.st.LinesFlushed += last - first + 1
}

func (m *twoImage) crashImage(rng *rand.Rand, evictProb float64) []uint64 {
	img := append([]uint64(nil), m.nvm...)
	m.st.CrashImages++
	for l, d := range m.dirty {
		if d && evictProb > 0 && rng.Float64() < evictProb {
			copy(img[l*WordsPerLine:(l+1)*WordsPerLine], m.cache[l*WordsPerLine:])
			m.st.EvictedLines++
		}
	}
	return img
}

func (m *twoImage) dirtyLines() []uint64 {
	var out []uint64
	for l, d := range m.dirty {
		if d {
			out = append(out, uint64(l)*LineSize)
		}
	}
	return out
}

// TestMatchesTwoImageModel drives the arena and the two-image reference with
// one seeded random sequence of every store, stream, persist and eviction —
// partial streams into dirty lines included — and after every step requires
// the same crash images (with and without eviction), durable words, dirty
// lines and counters.
func TestMatchesTwoImageModel(t *testing.T) {
	const window = 24 * LineSize // a few lines, so operations collide
	for seed := int64(0); seed < 4; seed++ {
		a := newTest(t, DataStart+window+LineSize)
		m := newTwoImage(a)
		rng := rand.New(rand.NewSource(seed))
		word := func() uint64 { return DataStart + uint64(rng.Intn(window/WordSize))*WordSize }
		span := func(off uint64) uint64 { // a word-aligned length that stays in the window
			return uint64(rng.Intn(int(DataStart+window-off)/WordSize)+1) * WordSize
		}
		for step := 0; step < 1500; step++ {
			off := word()
			switch op := rng.Intn(10); op {
			case 0:
				v := rng.Uint64()
				a.Write8(off, v)
				m.store(off, v)
			case 1, 2:
				var line [LineSize]byte
				var words [WordsPerLine]uint64
				rng.Read(line[:])
				lineOff := off &^ (LineSize - 1)
				for i := range words {
					words[i] = getWord(line[i*WordSize:])
					m.store(lineOff+uint64(i)*WordSize, words[i])
				}
				if op == 1 {
					a.WriteLine(off, &line)
				} else {
					a.WriteLineWords(off, &words)
				}
			case 3, 4:
				src := make([]byte, min(span(off), 3*LineSize))
				rng.Read(src)
				if op == 3 {
					a.WriteRange(off, src)
				} else {
					a.Zero(off, uint64(len(src)))
					clear(src)
				}
				for i := 0; i < len(src); i += WordSize {
					m.store(off+uint64(i), getWord(src[i:]))
				}
			case 5:
				src := make([]byte, span(off))
				rng.Read(src)
				a.WriteStream(off, src)
				for i := 0; i < len(src); i += WordSize {
					m.stream(off+uint64(i), getWord(src[i:]))
				}
			case 6:
				v := rng.Uint64()
				a.Write8Stream(off, v)
				m.stream(off, v)
			case 7:
				size := span(off)
				a.Persist(off, size)
				m.persist(off, size, true)
			case 8:
				size := span(off)
				a.PersistStream(off, size)
				m.persist(off, size, false)
			case 9:
				a.EvictLine(off)
				m.flush(off / LineSize)
				m.st.EvictedLines++
			}
			if got, want := a.CrashImage(nil, 0), m.crashImage(nil, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: crash image differs from the two-image model", seed, step)
			}
			imgSeed := rng.Int63()
			got := a.CrashImage(rand.New(rand.NewSource(imgSeed)), 0.4)
			if want := m.crashImage(rand.New(rand.NewSource(imgSeed)), 0.4); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: evicting crash image differs from the two-image model", seed, step)
			}
			for i, want := range m.nvm {
				if got := a.NVMRead8(uint64(i) * WordSize); got != want {
					t.Fatalf("seed %d step %d: NVMRead8 word %d = %#x, model %#x", seed, step, i, got, want)
				}
			}
			if got, want := a.DirtyLines(), m.dirtyLines(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: dirty lines %v, model %v", seed, step, got, want)
			}
			if got := a.Stats(); got != m.st {
				t.Fatalf("seed %d step %d: stats %+v, model %+v", seed, step, got, m.st)
			}
		}
	}
}

// TestSharedLineConcurrentPersist is the tree's log-entry pattern: writers own
// distinct words of the same lines and each stores its words, then persists
// its line, round after round. A pre-image saved concurrently with another
// writer's store must never cost that writer a persisted word: each writer's
// words are durable as soon as its persist returns, and after the writers
// quiesce every word reads back from the crash image.
func TestSharedLineConcurrentPersist(t *testing.T) {
	const writers, lines, rounds = 4, 3, 500
	const own = WordsPerLine / writers
	a := newTest(t, 4096)
	var wg sync.WaitGroup
	for g := uint64(0); g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := uint64(1); r <= rounds; r++ {
				for l := uint64(0); l < lines; l++ {
					for w := g * own; w < (g+1)*own; w++ {
						a.Write8(DataStart+l*LineSize+w*WordSize, r<<8|l<<4|w)
					}
					a.Persist(DataStart+l*LineSize+g*own*WordSize, own*WordSize)
					for w := g * own; w < (g+1)*own; w++ {
						if got := a.NVMRead8(DataStart + l*LineSize + w*WordSize); got != r<<8|l<<4|w {
							t.Errorf("round %d line %d word %d: durable %#x right after its persist", r, l, w, got)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	img := a.CrashImage(nil, 0)
	for l := uint64(0); l < lines; l++ {
		for w := uint64(0); w < WordsPerLine; w++ {
			off := DataStart + l*LineSize + w*WordSize
			if got, want := img[off/WordSize], rounds<<8|l<<4|w; got != want {
				t.Fatalf("line %d word %d: crash image holds %#x, last persisted %#x", l, w, got, want)
			}
		}
	}
	if d := a.DirtyLines(); len(d) != 0 {
		t.Fatalf("lines still dirty after every store was persisted: %v", d)
	}
}

// TestStreamStoredOnce pins that a streamed range over clean lines is held
// once: WriteStream and PersistStream take no pre-image slot, while the words
// are durable through the cache image.
func TestStreamStoredOnce(t *testing.T) {
	a := newTest(t, 64<<10)
	off := uint64(16 << 10)
	src := make([]byte, 4<<10)
	rand.New(rand.NewSource(1)).Read(src)
	a.WriteStream(off, src)
	a.Write8Stream(off+uint64(len(src)), 0xfeed)
	a.PersistStream(off, uint64(len(src))+WordSize)
	img := a.CrashImage(nil, 0)
	for i := uint64(0); i <= uint64(len(src))/WordSize; i++ {
		want := uint64(0xfeed)
		if i < uint64(len(src))/WordSize {
			want = getWord(src[i*WordSize:])
		}
		if img[off/WordSize+i] != want || a.NVMRead8(off+i*WordSize) != want {
			t.Fatalf("streamed word %d not durable: image %#x, NVMRead8 %#x, want %#x",
				i, img[off/WordSize+i], a.NVMRead8(off+i*WordSize), want)
		}
	}
	if made := slotsMade(a); made != [nPools]uint32{} {
		t.Fatalf("streaming into fresh lines took pre-image slots: %v", made)
	}
}
