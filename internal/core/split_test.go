package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rntree/internal/pmem"
)

// persistRec is one persistent instruction as the BeforePersist hook saw it.
type persistRec struct{ off, size uint64 }

func (p persistRec) String() string { return fmt.Sprintf("(%#x, %d)", p.off, p.size) }

// liveBytes is the live prefix of a compacted leaf image of n entries: the
// header, both slot lines and n log entries. It is spelled out here rather
// than taken from imageSize so the expected sizes do not follow the code
// under test.
func liveBytes(n int) uint64 { return kvOff + uint64(n)*kvEntrySize }

// linesOf is the number of cache lines a persist of [off, off+size) flushes.
func linesOf(off, size uint64) uint64 { return (off+size-1)/pmem.LineSize - off/pmem.LineSize + 1 }

// runSplit fills a fresh tree's single leaf with n keys, inserted in
// descending key order when desc is set (so the smallest keys sit at the
// highest log indices) and each updated `updates` times (so the log holds
// orphans), then runs splitLocked on the leaf and returns the leaf, the
// persists it issued and the pmem stats delta.
func runSplit(t *testing.T, opts Options, n, updates int, desc bool) (m *leafMeta, recs []persistRec, d pmem.Stats) {
	t.Helper()
	tr := newTree(t, opts, 4)
	key := func(i int) uint64 { return uint64(10 * (i + 1)) }
	for i := 0; i < n; i++ {
		k := key(i)
		if desc {
			k = key(n - 1 - i)
		}
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < updates; u++ {
		for i := 0; i < n; i++ {
			if err := tr.Update(key(i), uint64(100*u+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.LeafCount() != 1 {
		t.Fatalf("setup split the leaf already (%d leaves)", tr.LeafCount())
	}
	a := tr.arena
	m = tr.head
	a.SetHooks(&pmem.Hooks{BeforePersist: func(off, size uint64) {
		recs = append(recs, persistRec{off, size})
	}})
	before := a.Stats()
	m.vl.Lock()
	err := tr.splitLocked(m)
	m.vl.Unlock()
	after := a.Stats()
	a.SetHooks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := 0
	tr.Scan(0, 0, func(k, v uint64) bool { got++; return true })
	if got != n {
		t.Fatalf("tree holds %d keys after the split, want %d", got, n)
	}
	return m, recs, pmem.Stats{
		Persists:     after.Persists - before.Persists,
		LinesFlushed: after.LinesFlushed - before.LinesFlushed,
	}
}

func checkPersists(t *testing.T, got, want []persistRec) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("persists\n got %v\nwant %v", got, want)
	}
}

// A §5.2.3 compaction of n live entries that all sit at log index n or
// above (each key updated once) moves them into logs 0..n-1 and commits
// through the slot line: two persists, the moved range and the slot line.
// When every live entry already sits below n it persists nothing.
func TestCompactionFlushesLiveLines(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for _, n := range []int{1, 3, 16, 31} {
			m, recs, d := runSplit(t, opts, n, 1, false)
			moved := m.off + kvOff
			checkPersists(t, recs, []persistRec{
				{moved, uint64(n) * kvEntrySize},
				{m.off + pmem.LineSize, pmem.LineSize},
			})
			lines := linesOf(moved, uint64(n)*kvEntrySize) + 1
			if d.Persists != 2 || d.LinesFlushed != lines {
				t.Fatalf("n=%d: %d persists / %d lines, want 2 / %d", n, d.Persists, d.LinesFlushed, lines)
			}
		}
		for _, n := range []int{0, 3, 31} {
			if _, recs, d := runSplit(t, opts, n, 0, false); d.Persists != 0 {
				t.Fatalf("n=%d, nothing to move: persists %v, want none", n, recs)
			}
		}
	})
}

// A split in two of n entries, inserted in descending order so the lower
// half sits at the top of the log, persists the right leaf's live prefix,
// the old leaf's next pointer (the link), the slot line trimmed to the
// lower half, the lower half moved below index n/2 and the slot line that
// commits the move: 5 tree persists. The right leaf's Alloc adds the
// allocator's one-word bump-mark flip in the heap header.
func TestSplitFlushesLiveLines(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for _, n := range []int{32, 37, 62} {
			m, recs, d := runSplit(t, opts, n, 0, true)
			var leafRecs, alloc []persistRec
			for _, r := range recs {
				if r.off < pmem.DataStart {
					alloc = append(alloc, r)
				} else {
					leafRecs = append(leafRecs, r)
				}
			}
			if len(alloc) != 1 || alloc[0].size != pmem.WordSize {
				t.Fatalf("n=%d: allocator persists %v, want one word", n, alloc)
			}
			right := m.next.Load().off
			half := n / 2
			slot, moved := m.off+pmem.LineSize, m.off+kvOff
			checkPersists(t, leafRecs, []persistRec{
				{right, liveBytes(n - half)},
				{m.off, pmem.WordSize},
				{slot, pmem.LineSize},
				{moved, uint64(half) * kvEntrySize},
				{slot, pmem.LineSize},
			})
			lines := linesOf(right, liveBytes(n-half)) + 1 + 1 + linesOf(moved, uint64(half)*kvEntrySize) + 1 + 1
			if d.Persists != 5+1 || d.LinesFlushed != lines {
				t.Fatalf("n=%d: %d persists / %d lines, want 6 / %d", n, d.Persists, d.LinesFlushed, lines)
			}
		}
	})
}

// A split crashed at its trimmed-slot persist, after the link is durable,
// may leave the upper half in both leaves (seed 0 evicts nothing, so it
// always does). CrashRecover trims the old leaf: the tree checks, every key
// reads back exactly once with its value, and a second recovery of the
// recovered image changes nothing.
func TestSplitCrashAtTrimRecovers(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for seed := int64(0); seed < 6; seed++ {
			a := pmem.New(pmem.Config{Size: 4 << 20})
			tr, err := New(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			evict := 0.5
			if seed == 0 {
				evict = 0
			}
			var img []uint64
			linked := false
			a.SetHooks(&pmem.Hooks{BeforePersist: func(off, size uint64) {
				switch {
				case img != nil:
				case size == pmem.WordSize && off >= pmem.DataStart:
					linked = true // the link: the only one-word leaf persist
				case linked && size == pmem.LineSize:
					img = a.CrashImage(rng, evict)
				}
			}})
			// The 63rd insert fills the leaf and splits it; every insert
			// before the split has committed.
			want := map[uint64]uint64{}
			for _, i := range rng.Perm(tr.capacity - 1) {
				k, v := uint64(100*(i+1)), rng.Uint64()
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			}
			a.SetHooks(nil)
			if img == nil {
				t.Fatalf("seed %d: no split reached its trimmed-slot persist", seed)
			}
			check := func(stage string, rec *Tree) {
				t.Helper()
				if err := rec.CheckInvariants(); err != nil {
					t.Fatalf("seed %d %s: %v", seed, stage, err)
				}
				// Count keys leaf by leaf: Scan would skip a duplicate.
				seen := map[uint64]int{}
				for m := rec.head; m != nil; m = m.next.Load() {
					var line [pmem.LineSize]byte
					rec.arena.ReadLine(m.off+pslotOff, &line)
					s := decodeSlot(&line, rec.capacity)
					for i := 0; i < s.n; i++ {
						seen[rec.arena.Read8(kvEntryOff(m.off, int(s.idx[i])))]++
					}
				}
				if len(seen) != len(want) {
					t.Fatalf("seed %d %s: %d distinct keys, want %d", seed, stage, len(seen), len(want))
				}
				for k, w := range want {
					if v, ok := rec.Find(k); seen[k] != 1 || !ok || v != w {
						t.Fatalf("seed %d %s: key %d held %d times, reads (%d, %v), want %d", seed, stage, k, seen[k], v, ok, w)
					}
				}
			}
			a1 := reboot(t, img)
			p0 := a1.Stats().Persists
			rec, err := CrashRecover(a1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if p := a1.Stats().Persists - p0; seed == 0 && p != 1 {
				t.Fatalf("seed 0: recovery issued %d persists, want the one trimmed slot line", p)
			}
			check("first recovery", rec)

			a2 := reboot(t, a1.CrashImage(nil, 0))
			before := a2.CrashImage(nil, 0)
			p0 = a2.Stats().Persists
			rec2, err := CrashRecover(a2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if p := a2.Stats().Persists - p0; p != 0 || !reflect.DeepEqual(a2.CrashImage(nil, 0), before) {
				t.Fatalf("seed %d: second recovery issued %d persists or changed the image", seed, p)
			}
			check("second recovery", rec2)
		}
	})
}
