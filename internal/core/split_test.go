package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"rntree/internal/pmem"
	"rntree/internal/tree"
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
// orphans), then runs splitLocked on the leaf and returns the tree, the
// persists it issued and the pmem stats delta.
func runSplit(t *testing.T, opts Options, n, updates int, desc bool) (tr *Tree, recs []persistRec, d pmem.Stats) {
	t.Helper()
	tr = newTree(t, opts, 4)
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
	m := tr.head
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
	return tr, recs, pmem.Stats{
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

// A §5.2.3 compaction of a leaf at most half live, its log full of orphans
// or not, issues no persist: it only offers for allocation exactly the log
// entries the slot array does not reference, and CheckInvariants catches a
// mask that offers a live one.
func TestCompactionPersistsNothing(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for _, n := range []int{0, 1, 3, 16, 31, 32} {
			for _, updates := range []int{0, 1} {
				tr, recs, _ := runSplit(t, opts, n, updates, false)
				if len(recs) != 0 || tr.LeafCount() != 1 {
					t.Fatalf("n=%d updates=%d: persists %v, %d leaves; want none, 1 leaf", n, updates, recs, tr.LeafCount())
				}
				m := tr.head
				var line [pmem.LineSize]byte
				tr.arena.ReadLine(m.off+pslotOff, &line)
				var want uint64
				for e := 0; e < tr.capacity; e++ {
					want |= 1 << e
				}
				for i := 0; i < int(line[0]); i++ {
					want &^= 1 << line[1+i]
				}
				if got := m.free.Load(); got != want || int(line[0]) != n {
					t.Fatalf("n=%d updates=%d: %d slots, free mask %#x, want %d slots, %#x", n, updates, line[0], got, n, want)
				}
				if n > 0 {
					// CheckInvariants rejects a slot naming a free entry.
					m.free.Store(want | 1<<line[1])
					if err := tr.CheckInvariants(); err == nil {
						t.Fatalf("n=%d updates=%d: CheckInvariants accepts a free entry in slot 0", n, updates)
					}
				}
			}
		}
	})
}

// A split in two of n entries persists the right leaf's live prefix, the
// old leaf's next pointer (the link) and the slot line trimmed to the lower
// half: 3 tree persists. The lower half stays where it sits in the log, at
// the top here (descending inserts), and compacts for free. The right
// leaf's Alloc adds the allocator's one-word bump-mark flip in the heap
// header. A leaf exactly half live compacts instead, allocating nothing.
func TestSplitPersistsThreeRanges(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for _, n := range []int{33, 37, 62} {
			tr, recs, d := runSplit(t, opts, n, 0, true)
			m := tr.head
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
			checkPersists(t, leafRecs, []persistRec{
				{right, liveBytes(n - half)},
				{m.off, pmem.WordSize},
				{m.off + pmem.LineSize, pmem.LineSize},
			})
			lines := linesOf(right, liveBytes(n-half)) + 1 + 1 + 1
			if d.Persists != 3+1 || d.LinesFlushed != lines {
				t.Fatalf("n=%d: %d persists / %d lines, want 4 / %d", n, d.Persists, d.LinesFlushed, lines)
			}
		}
		tr, recs, _ := runSplit(t, opts, DefaultLeafCapacity/2, 0, true)
		if len(recs) != 0 || tr.LeafCount() != 1 {
			t.Fatalf("n=32: persists %v, %d leaves; want a compaction: none, 1 leaf", recs, tr.LeafCount())
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

// Leaves at most half live never split on updates: neither bulk-loaded
// leaves (half full) nor leaves that are all split halves (ascending
// inserts of 63+31j keys split every leaf at 63 into 31 and 32). Three
// updates of every key keep the leaf count, cost exactly the paper's two
// persists each, and leave the tree checking.
func TestUpdateOnlyNeverSplits(t *testing.T) {
	const n = 63 + 31*40
	bulk := func(t *testing.T, opts Options) *Tree {
		recs := make([]tree.KV, n)
		for i := range recs {
			recs[i] = tree.KV{Key: uint64(i), Value: uint64(i)}
		}
		tr, err := BulkLoad(pmem.New(pmem.Config{Size: 16 << 20}), opts, recs)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	split := func(t *testing.T, opts Options) *Tree {
		tr := newTree(t, opts, 16)
		for i := uint64(0); i < n; i++ {
			if err := tr.Insert(i, i); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	for _, c := range []struct {
		name  string
		build func(*testing.T, Options) *Tree
	}{{"bulk", bulk}, {"split", split}} {
		build := c.build
		t.Run(c.name, func(t *testing.T) {
			bothVariants(t, func(t *testing.T, opts Options) {
				tr := build(t, opts)
				leaves := tr.LeafCount()
				p0 := tr.Arena().Stats().Persists
				for round := uint64(1); round <= 3; round++ {
					for i := uint64(0); i < n; i++ {
						if err := tr.Update(i, round<<32|i); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got := tr.LeafCount(); got != leaves {
					t.Fatalf("updates alone changed the leaf count %d -> %d", leaves, got)
				}
				if p := tr.Arena().Stats().Persists - p0; p != 2*3*n {
					t.Fatalf("%d persists for %d updates, want 2 each", p, 3*n)
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				for i := uint64(0); i < n; i++ {
					if v, ok := tr.Find(i); !ok || v != 3<<32|i {
						t.Fatalf("key %d reads (%#x, %v), want %#x", i, v, ok, 3<<32|i)
					}
				}
			})
		})
	}
}

// A compaction frees the entry that held key 10's original value; the next
// update, of key 50, reuses it. A crash after that entry's persist and
// before the slot publish recovers key 50's old value, and key 10 keeps
// its newest one.
func TestCrashBeforeReusedEntryPublish(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		for seed := int64(0); seed < 4; seed++ {
			a := pmem.New(pmem.Config{Size: 4 << 20})
			tr, err := New(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]uint64{}
			for i := uint64(1); i <= 10; i++ {
				if err := tr.Insert(10*i, i); err != nil {
					t.Fatal(err)
				}
				want[10*i] = i
			}
			// Key 10 sits in log 0; its updates take logs 10..62, and the
			// publish that leaves one entry free compacts the leaf.
			for v := uint64(100); v < 153; v++ {
				if err := tr.Update(10, v); err != nil {
					t.Fatal(err)
				}
				want[10] = v
			}
			m := tr.head
			if f := m.free.Load(); f&1 == 0 || tr.LeafCount() != 1 {
				t.Fatalf("log 0 not freed by a compaction (free %#x, %d leaves)", f, tr.LeafCount())
			}
			var img []uint64
			rng := rand.New(rand.NewSource(seed))
			a.SetHooks(&pmem.Hooks{AfterPersist: func(off, size uint64) {
				if img == nil && off == kvEntryOff(m.off, 0) && size == kvEntrySize {
					img = a.CrashImage(rng, 0.5)
				}
			}})
			if err := tr.Update(50, 999); err != nil {
				t.Fatal(err)
			}
			a.SetHooks(nil)
			if img == nil {
				t.Fatal("the update of key 50 did not reuse log 0")
			}
			rec, err := CrashRecover(reboot(t, img), opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			got := map[uint64]uint64{}
			rec.Scan(0, 0, func(k, v uint64) bool { got[k] = v; return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: recovered %v, want %v", seed, got, want)
			}
		}
	})
}

// Reuse stress under the race detector: at capacity 8 a leaf compacts
// every few updates, so log entries are freed and rewritten while readers
// probe them. Every value carries its key in the high half; a reader that
// ever returns a value not written for its key read a reused entry
// unvalidated, or a writer's bytes landed in an entry reallocated under it.
func TestReuseStressSmallLeaves(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		opts.LeafCapacity = 8
		tr := newTree(t, opts, 16)
		const keys = 64
		for k := uint64(0); k < keys; k++ {
			if err := tr.Insert(k, k<<32); err != nil {
				t.Fatal(err)
			}
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := uint64(1); i <= 20000 && !stop.Load(); i++ {
					k := uint64(r.Intn(keys))
					if err := tr.Upsert(k, k<<32|i); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(w + 1))
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for i := 0; i < 20000 && !stop.Load(); i++ {
					k := uint64(r.Intn(keys))
					if v, ok := tr.Find(k); !ok || v>>32 != k {
						stop.Store(true)
						t.Errorf("Find(%d) = (%#x, %v): not a value written for the key", k, v, ok)
						return
					}
					tr.Scan(k, 4, func(sk, v uint64) bool {
						if v>>32 != sk {
							stop.Store(true)
							t.Errorf("Scan yields (%d, %#x): not a value written for the key", sk, v)
						}
						return true
					})
				}
			}(int64(w + 10))
		}
		wg.Wait()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
