package core

import (
	"fmt"
	"math/rand"
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

// runSplit fills a fresh tree's single leaf with n keys (each updated
// `updates` times, so the log holds orphans), warms the undo pool with one
// idle slot, then runs splitLocked on the leaf and returns the undo slot,
// the leaf, the persists it issued and the pmem stats delta.
func runSplit(t *testing.T, opts Options, n, updates int) (uoff uint64, m *leafMeta, recs []persistRec, d pmem.Stats) {
	t.Helper()
	tr := newTree(t, opts, 4)
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(10*(i+1)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < updates; u++ {
		for i := 0; i < n; i++ {
			if err := tr.Update(uint64(10*(i+1)), uint64(100*u+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.LeafCount() != 1 {
		t.Fatalf("setup split the leaf already (%d leaves)", tr.LeafCount())
	}
	a := tr.arena
	uoff, err := tr.undo.acquire(a)
	if err != nil {
		t.Fatal(err)
	}
	tr.undo.release(a, uoff)

	m = tr.head
	a.SetHooks(&pmem.Hooks{BeforePersist: func(off, size uint64) {
		recs = append(recs, persistRec{off, size})
	}})
	before := a.Stats()
	m.vl.Lock()
	err = tr.splitLocked(m)
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
	return uoff, m, recs, pmem.Stats{
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

// A §5.2.3 compaction of n live entries persists the compacted undo image
// and the rewritten leaf at their live prefix only, plus the one-line arm
// and disarm of the undo slot: 4 persists, whatever the log held before.
func TestCompactionFlushesLiveLines(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for _, n := range []int{0, 1, 3, 16, 31} {
			uoff, m, recs, d := runSplit(t, opts, n, 1)
			img := uoff + undoImageOff
			checkPersists(t, recs, []persistRec{
				{img, liveBytes(n)},
				{uoff + undoStatusOff, 8},
				{m.off, liveBytes(n)},
				{uoff + undoStatusOff, 8},
			})
			lines := linesOf(img, liveBytes(n)) + linesOf(m.off, liveBytes(n)) + 2
			if d.Persists != 4 || d.LinesFlushed != lines {
				t.Fatalf("n=%d: %d persists / %d lines, want 4 / %d", n, d.Persists, d.LinesFlushed, lines)
			}
		}
	})
}

// A split in two of n entries persists the compacted undo image, the right
// leaf and the rewritten left leaf at their live prefixes, plus the arm and
// disarm lines: 5 tree persists. The right leaf's Alloc adds the
// allocator's one-word bump-mark flip in the heap header.
func TestSplitFlushesLiveLines(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for _, n := range []int{32, 37, 62} {
			uoff, m, recs, d := runSplit(t, opts, n, 0)
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
			img := uoff + undoImageOff
			half := n / 2
			checkPersists(t, leafRecs, []persistRec{
				{img, liveBytes(n)},
				{uoff + undoStatusOff, 8},
				{right, liveBytes(n - half)},
				{m.off, liveBytes(half)},
				{uoff + undoStatusOff, 8},
			})
			lines := linesOf(img, liveBytes(n)) + linesOf(right, liveBytes(n-half)) + linesOf(m.off, liveBytes(half)) + 2 + 1
			if d.Persists != 5+1 || d.LinesFlushed != lines {
				t.Fatalf("n=%d: %d persists / %d lines, want 6 / %d", n, d.Persists, d.LinesFlushed, lines)
			}
		}
	})
}

// One undo slot serves a full-leaf split and then a 3-entry compaction that
// crashes right after arming, so the slot holds a 3-entry image over the
// stale tail of the 63-entry one. Recovery restores exactly the 3 keys, and
// the leaf refills to capacity from there with every key reading back.
func TestUndoSlotReuseAfterLargerImage(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		a := pmem.New(pmem.Config{Size: 4 << 20})
		tr, err := New(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]uint64{}
		put := func(k, v uint64, upsert func(k, v uint64) error) {
			t.Helper()
			if err := upsert(k, v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		// 63 inserts: the 63rd fills the leaf and splits it 31 | 32.
		for i := uint64(1); i <= 63; i++ {
			put(100*i, i, tr.Insert)
		}
		slots := walkUndoChain(a)
		if len(slots) != 1 || tr.LeafCount() != 2 {
			t.Fatalf("setup: %d undo slots, %d leaves; want 1, 2", len(slots), tr.LeafCount())
		}
		uoff := slots[0]
		// Left leaf down to 3 live keys, then updates until its log refills
		// and the compaction runs; snapshot right after the slot is armed.
		for i := uint64(4); i <= 31; i++ {
			if err := tr.Remove(100 * i); err != nil {
				t.Fatal(err)
			}
			delete(want, 100*i)
		}
		rng := rand.New(rand.NewSource(seed))
		var img []uint64
		a.SetHooks(&pmem.Hooks{AfterPersist: func(off, size uint64) {
			if img == nil && off == uoff+undoStatusOff && a.Read8(off) != 0 {
				img = a.CrashImage(rng, 0.5)
			}
		}})
		for u := uint64(0); img == nil; u++ {
			if u > 64 {
				t.Fatal("no compaction armed the undo slot")
			}
			put(100*(u%3+1), 1000+u, tr.Update)
		}
		a.SetHooks(nil)

		rec, err := CrashRecover(reboot(t, img), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var left []uint64
		rec.Scan(0, 0, func(k, v uint64) bool {
			if k < 3200 {
				left = append(left, k)
			}
			if v != want[k] {
				t.Fatalf("seed %d: key %d = %d, want %d", seed, k, v, want[k])
			}
			return true
		})
		if fmt.Sprint(left) != "[100 200 300]" {
			t.Fatalf("seed %d: recovered left leaf holds %v, want [100 200 300]", seed, left)
		}
		// Refill the left leaf to capacity-1 live entries and beyond.
		for k := uint64(301); k < 301+uint64(rec.capacity); k++ {
			put(k, k, rec.Insert)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("seed %d after refill: %v", seed, err)
		}
		n := 0
		rec.Scan(0, 0, func(k, v uint64) bool {
			if w, ok := want[k]; !ok || v != w {
				t.Fatalf("seed %d after refill: key %d = %d, want %d (present %v)", seed, k, v, w, ok)
			}
			n++
			return true
		})
		if n != len(want) {
			t.Fatalf("seed %d after refill: %d keys, want %d", seed, n, len(want))
		}
	}
}
