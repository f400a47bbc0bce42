package forest

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rntree/internal/core"
	"rntree/internal/pmem"
	"rntree/internal/tree"
	"rntree/internal/tree/treetest"
)

func testOpts(partitions int, dual bool) Options {
	return Options{
		Partitions: partitions,
		ArenaSize:  8 << 20,
		Tree:       core.Options{DualSlot: dual, LeafCapacity: 16},
	}
}

func mustNew(t *testing.T, partitions int, dual bool) *Forest {
	t.Helper()
	f, err := New(testOpts(partitions, dual))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The conformance suite must hold for every partition count in both
// slot-array modes: the forest is a drop-in Index.
func TestConformance(t *testing.T) {
	for _, parts := range []int{1, 2, 4, 8} {
		for _, dual := range []bool{false, true} {
			name := fmt.Sprintf("Forest%dDS%v", parts, dual)
			p, d := parts, dual
			treetest.RunConformance(t, name, func(t *testing.T) tree.Index {
				return mustNew(t, p, d)
			})
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	for _, bad := range []int{3, 5, 6, 7, 100, MaxPartitions * 2, -1} {
		if _, err := New(testOpts(bad, false)); err == nil {
			t.Fatalf("partitions=%d accepted", bad)
		}
	}
	f, err := New(Options{ArenaSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if f.Partitions() != 1 {
		t.Fatalf("default partitions = %d", f.Partitions())
	}
}

func TestRoutingIsStable(t *testing.T) {
	f := mustNew(t, 8, true)
	for k := uint64(0); k < 10_000; k++ {
		if err := f.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	// Every key must be findable through routing and live in exactly the
	// partition the router names.
	for k := uint64(0); k < 10_000; k++ {
		if v, ok := f.Find(k); !ok || v != k*3 {
			t.Fatalf("Find(%d) = %d,%v", k, v, ok)
		}
		pi := f.PartitionFor(k)
		if _, ok := f.Partition(pi).Tree().Find(k); !ok {
			t.Fatalf("key %d missing from its partition %d", k, pi)
		}
	}
	// Dense keys should spread: no partition may be empty or hold more
	// than twice its fair share.
	for i := 0; i < f.Partitions(); i++ {
		n := f.Partition(i).Tree().Len()
		if n == 0 || n > 2*10_000/f.Partitions() {
			t.Fatalf("partition %d holds %d of 10000 keys (bad spread)", i, n)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Cross-partition scans must interleave partitions in global key order —
// with dense keys and hash routing, adjacent keys almost always live in
// different partitions, so every scan crosses partition boundaries.
func TestScanCrossesPartitions(t *testing.T) {
	f := mustNew(t, 4, true)
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if err := f.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	// Full scan: strict global order, all records.
	var prev uint64
	first := true
	switches := 0
	prevPart := -1
	count := f.Scan(0, 0, func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		if v != k+1 {
			t.Fatalf("scan value %d for key %d", v, k)
		}
		if pi := f.PartitionFor(k); pi != prevPart {
			switches++
			prevPart = pi
		}
		prev, first = k, false
		return true
	})
	if count != n {
		t.Fatalf("scan visited %d, want %d", count, n)
	}
	if switches < n/4 {
		t.Fatalf("scan crossed partitions only %d times over %d keys", switches, n)
	}
	// Bounded scans starting at a key owned by each partition: the start
	// key itself and the next n-1 global keys must appear regardless of
	// which partitions own them.
	for pi := 0; pi < f.Partitions(); pi++ {
		var start uint64
		for k := uint64(100); k < n; k++ {
			if f.PartitionFor(k) == pi {
				start = k
				break
			}
		}
		want := start
		got := f.Scan(start, 50, func(k, _ uint64) bool {
			if k != want {
				t.Fatalf("scan from %d (partition %d): got %d want %d", start, pi, k, want)
			}
			want++
			return true
		})
		if got != 50 {
			t.Fatalf("scan from %d visited %d", start, got)
		}
	}
	// Early-terminated scan returns the visited count.
	if got := f.Scan(0, 0, func(k, _ uint64) bool { return k < 9 }); got != 10 {
		t.Fatalf("early-stop scan visited %d", got)
	}
}

func TestIteratorSeek(t *testing.T) {
	f := mustNew(t, 4, false)
	for k := uint64(0); k < 1000; k += 2 {
		if err := f.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	it := f.NewIterator(501)
	kv, ok := it.Next()
	if !ok || kv.Key != 502 {
		t.Fatalf("Next after 501: %v %v", kv, ok)
	}
	it.Seek(10)
	for want := uint64(10); want < 20; want += 2 {
		kv, ok := it.Next()
		if !ok || kv.Key != want {
			t.Fatalf("after seek: got %v,%v want %d", kv, ok, want)
		}
	}
	it.Seek(1001)
	if _, ok := it.Next(); ok {
		t.Fatal("iterator past end returned a record")
	}
}

func TestConcurrent(t *testing.T) {
	for _, dual := range []bool{false, true} {
		t.Run(fmt.Sprintf("DS%v", dual), func(t *testing.T) {
			f := mustNew(t, 4, dual)
			const (
				writers = 4
				readers = 2
				perG    = 3000
			)
			var writeWG, readWG sync.WaitGroup
			for w := 0; w < writers; w++ {
				writeWG.Add(1)
				go func(w int) {
					defer writeWG.Done()
					base := uint64(w) * perG
					for i := uint64(0); i < perG; i++ {
						k := base + i
						if err := f.Insert(k, k^0xABCD); err != nil {
							t.Errorf("insert %d: %v", k, err)
							return
						}
						if i%3 == 0 {
							if err := f.Update(k, k); err != nil {
								t.Errorf("update %d: %v", k, err)
								return
							}
						}
						if i%7 == 0 {
							if err := f.Remove(k); err != nil {
								t.Errorf("remove %d: %v", k, err)
								return
							}
						}
					}
				}(w)
			}
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				readWG.Add(1)
				go func(r int) {
					defer readWG.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						f.Find(rng.Uint64() % (writers * perG))
						var prev uint64
						first := true
						f.Scan(rng.Uint64()%(writers*perG), 64, func(k, _ uint64) bool {
							if !first && k <= prev {
								t.Errorf("concurrent scan out of order: %d after %d", k, prev)
								return false
							}
							prev, first = k, false
							return true
						})
					}
				}(r)
			}
			writeWG.Wait()
			close(stop)
			readWG.Wait()
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			want := 0
			for w := 0; w < writers; w++ {
				for i := uint64(0); i < perG; i++ {
					if i%7 != 0 {
						want++
					}
				}
			}
			if got := f.Len(); got != want {
				t.Fatalf("Len = %d, want %d", got, want)
			}
		})
	}
}

// TestScanVsUpdateInterleaving pins the scan/update contract across leaf
// version bumps: a merged full scan racing value updates (slot-line
// republish in place) and insert/remove churn (splits, version bumps) must
// report every pre-loaded "stable" key exactly once, in strictly increasing
// order, with an untorn value. TestConcurrent checks local scan order;
// this one checks global completeness — the failure mode where a scan
// straddling a split sees a leaf's records twice or not at all.
func TestScanVsUpdateInterleaving(t *testing.T) {
	for _, dual := range []bool{false, true} {
		t.Run(fmt.Sprintf("DS%v", dual), func(t *testing.T) {
			f := mustNew(t, 4, dual)
			const nStable = 2000
			// Stable keys are even, values start at the key and are only
			// ever overwritten with key+2j, j<1000 — so any torn or stale
			// read is detectable.
			for i := 1; i <= nStable; i++ {
				k := uint64(2 * i)
				if err := f.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			// Updaters: republish slot lines of stable keys in place.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := uint64(2 + 2*rng.Intn(nStable))
						if err := f.Update(k, k+2*uint64(rng.Intn(1000))); err != nil {
							t.Errorf("update %d: %v", k, err)
							return
						}
					}
				}(int64(w + 1))
			}
			// Churners: insert/remove odd keys so leaves around the stable
			// ones split and bump versions mid-scan.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						k := uint64(1 + 2*rng.Intn(nStable+200))
						if rng.Intn(2) == 0 {
							_ = f.Upsert(k, k)
						} else {
							_ = f.Remove(k)
						}
					}
				}(int64(100 + w))
			}
			for scan := 0; scan < 25; scan++ {
				it := f.NewIterator(0)
				var prev uint64
				first := true
				seen := 0
				for kv, ok := it.Next(); ok; kv, ok = it.Next() {
					if !first && kv.Key <= prev {
						t.Fatalf("scan %d: key %d after %d (duplicate or disorder)", scan, kv.Key, prev)
					}
					prev, first = kv.Key, false
					if kv.Key%2 == 0 {
						seen++
						if kv.Value < kv.Key || (kv.Value-kv.Key)%2 != 0 || kv.Value >= kv.Key+2000 {
							t.Fatalf("scan %d: key %d carries impossible value %d", scan, kv.Key, kv.Value)
						}
					}
				}
				if seen != nStable {
					t.Fatalf("scan %d saw %d/%d stable keys (lost or duplicated across a leaf version bump)", scan, seen, nStable)
				}
			}
			close(stop)
			wg.Wait()
			if err := f.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckpointRecover(t *testing.T) {
	for _, dual := range []bool{false, true} {
		f := mustNew(t, 4, dual)
		for k := uint64(0); k < 4000; k++ {
			if err := f.Insert(k, k*7); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 4000; k += 5 {
			if err := f.Remove(k); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		imgs := f.CrashImages(nil, 0)
		f2, err := Open(imgs, testOpts(4, dual))
		if err != nil {
			t.Fatal(err)
		}
		verifyContents(t, f2, 4000)
	}
}

func TestCrashRecover(t *testing.T) {
	for _, dual := range []bool{false, true} {
		f := mustNew(t, 4, dual)
		for k := uint64(0); k < 4000; k++ {
			if err := f.Insert(k, k*7); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint64(0); k < 4000; k += 5 {
			if err := f.Remove(k); err != nil {
				t.Fatal(err)
			}
		}
		// No Close: a hard power cut with random dirty-line eviction. The
		// forest is quiescent, so every committed record must survive.
		rng := rand.New(rand.NewSource(7))
		imgs := f.CrashImages(rng, 0.5)
		f2, err := Open(imgs, testOpts(4, dual))
		if err != nil {
			t.Fatal(err)
		}
		verifyContents(t, f2, 4000)
	}
}

func verifyContents(t *testing.T, f *Forest, n uint64) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := f.Find(k)
		if k%5 == 0 {
			if ok {
				t.Fatalf("removed key %d found after recovery", k)
			}
			continue
		}
		if !ok || v != k*7 {
			t.Fatalf("Find(%d) after recovery = %d,%v", k, v, ok)
		}
	}
	// Recovered forest stays writable.
	if err := f.Upsert(n+1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsBadImageSets: an image set that is not one forest in
// partition order — reordered, partial, not a power of two, a standalone
// tree, or a root line whose binding word names the wrong count or position
// or is garbage — is an error, never a panic, and the images are not
// written.
func TestOpenRejectsBadImageSets(t *testing.T) {
	f := mustNew(t, 4, true)
	for k := uint64(0); k < 100; k++ {
		if err := f.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	imgs := f.CrashImages(nil, 0)

	// Reordered partitions.
	swapped := [][]uint64{imgs[1], imgs[0], imgs[2], imgs[3]}
	if _, err := Open(swapped, testOpts(4, true)); err == nil {
		t.Fatal("reordered image set accepted")
	}
	// Subset of partitions (count mismatch).
	if _, err := Open(imgs[:2], testOpts(4, true)); err == nil {
		t.Fatal("partial image set accepted")
	}
	// Non-power-of-two set.
	if _, err := Open(imgs[:3], testOpts(4, true)); err == nil {
		t.Fatal("3-image set accepted")
	}
	// Hostile binding words: a standalone tree (0), another forest's count,
	// an index past the set, all ones.
	const n = 4
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"standalone tree", 0},
		{"wrong count", 2*n<<32 | 1},
		{"index >= n", n<<32 | n},
		{"all ones", ^uint64(0)},
	} {
		bad := append([][]uint64(nil), imgs...)
		bad[1] = append([]uint64(nil), imgs[1]...)
		bad[1][rootForestOff/pmem.WordSize] = c.v
		before := append([]uint64(nil), bad[1]...)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("binding word %s (%#x): Open panicked: %v", c.name, c.v, r)
				}
			}()
			if _, err := Open(bad, testOpts(n, true)); err == nil {
				t.Errorf("binding word %s (%#x) accepted", c.name, c.v)
			}
		}()
		if !slices.Equal(bad[1], before) {
			t.Errorf("binding word %s: Open wrote to the image", c.name)
		}
	}
	// The original, correctly ordered set still opens.
	if _, err := Open(imgs, testOpts(4, true)); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAggregation(t *testing.T) {
	f := mustNew(t, 4, true)
	for k := uint64(0); k < 2000; k++ {
		if err := f.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	s := f.Stats()
	if s.Persists == 0 || s.WordsWritten == 0 || s.HTM.Commits == 0 || s.Leaves == 0 {
		t.Fatalf("aggregated stats have zero fields: %+v", s)
	}
	per := f.PartitionStats()
	if len(per) != 4 {
		t.Fatalf("PartitionStats len %d", len(per))
	}
	var sum core.Stats
	for _, ps := range per {
		sum.Persists += ps.Persists
		sum.HTM.Commits += ps.HTM.Commits
		sum.Leaves += ps.Leaves
	}
	if sum.Persists != s.Persists || sum.HTM.Commits != s.HTM.Commits || sum.Leaves != s.Leaves {
		t.Fatalf("aggregate %+v disagrees with per-partition sum %+v", s, sum)
	}
	if s.Leaves != f.LeafCount() {
		t.Fatalf("Leaves %d != LeafCount %d", s.Leaves, f.LeafCount())
	}
	f.ResetStats()
	if s2 := f.Stats(); s2.Persists != 0 || s2.HTM.Commits != 0 {
		t.Fatalf("ResetStats left counters: %+v", s2)
	}
}

func TestBulkLoad(t *testing.T) {
	var recs []tree.KV
	for k := uint64(0); k < 5000; k++ {
		recs = append(recs, tree.KV{Key: k * 3, Value: k})
	}
	f, err := BulkLoad(testOpts(8, true), recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if v, ok := f.Find(r.Key); !ok || v != r.Value {
			t.Fatalf("Find(%d) = %d,%v", r.Key, v, ok)
		}
	}
	i := 0
	f.Scan(0, 0, func(k, v uint64) bool {
		if k != recs[i].Key || v != recs[i].Value {
			return false
		}
		i++
		return true
	})
	if i != len(recs) {
		t.Fatalf("bulk-loaded scan visited %d of %d", i, len(recs))
	}
	// Bulk-loaded forests recover like any other.
	f.Close()
	f2, err := Open(f.CrashImages(nil, 0), testOpts(8, true))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Len() != len(recs) {
		t.Fatalf("recovered bulk load has %d records", f2.Len())
	}
}

// A partition whose initial segment fills must grow by appending segments
// instead of surfacing ErrFull, and the grown layout must survive a crash.
func TestPartitionGrowsInsteadOfFilling(t *testing.T) {
	opts := Options{
		Partitions:  2,
		ArenaSize:   1 << 16,
		GrowSize:    1 << 16,
		MaxSegments: 4,
		Tree:        core.Options{LeafCapacity: 8},
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	initial := f.Partition(0).Arena().Size()
	const n = 4000 // well past what one 64KB segment per partition can hold
	for k := uint64(1); k <= n; k++ {
		if err := f.Insert(k, k*7); err != nil {
			t.Fatalf("Insert(%d) on a growable forest: %v", k, err)
		}
	}
	grew := 0
	for i := 0; i < f.Partitions(); i++ {
		if a := f.Partition(i).Arena(); a.Size() > initial {
			if a.Segments() < 2 {
				t.Fatalf("partition %d grew without committing a segment", i)
			}
			grew++
		}
	}
	if grew == 0 {
		t.Fatal("no partition grew; shrink ArenaSize or raise n")
	}
	// Hard power cut across the grown layout.
	imgs := f.CrashImages(nil, 0)
	f2, err := Open(imgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if v, ok := f2.Find(k); !ok || v != k*7 {
			t.Fatalf("Find(%d) after grown recovery = %d,%v", k, v, ok)
		}
	}
	// The recovered forest keeps growing: fill further without error.
	for k := uint64(n + 1); k <= n+500; k++ {
		if err := f2.Insert(k, k*7); err != nil {
			t.Fatalf("post-recovery Insert(%d): %v", k, err)
		}
	}
}

// ResetStats zeroes the HTM counters of the regions the partitions' trees
// actually run in, however the forest was built.
func TestResetStatsReachesTreeRegions(t *testing.T) {
	var recs []tree.KV
	for k := uint64(0); k < 1000; k++ {
		recs = append(recs, tree.KV{Key: k, Value: k})
	}
	built, err := BulkLoad(testOpts(2, true), recs)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Forest{"New": mustNew(t, 2, true), "BulkLoad": built} {
		for k := uint64(0); k < 100; k++ {
			if err := f.Upsert(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		if c := f.Stats().HTM.Commits; c == 0 {
			t.Fatalf("%s: 100 upserts counted no HTM commits", name)
		}
		f.ResetStats()
		if c := f.Stats().HTM.Commits; c != 0 {
			t.Errorf("%s: %d HTM commits counted after ResetStats", name, c)
		}
	}
}

// Formatting a forest persists exactly what formatting its trees persists:
// the binding word rides each tree's root-line persist.
func TestFormatPersistsOnlyTheTrees(t *testing.T) {
	const parts = 4
	opts := testOpts(parts, false)
	if err := opts.normalize(); err != nil {
		t.Fatal(err)
	}
	a := pmem.New(opts.arenaConfig())
	base := a.Stats().Persists
	if _, err := core.New(a, opts.Tree); err != nil {
		t.Fatal(err)
	}
	want := a.Stats().Persists - base
	f := mustNew(t, parts, false)
	for i := 0; i < parts; i++ {
		if got := f.Partition(i).Arena().Stats().Persists - base; got != want {
			t.Errorf("partition %d: format issued %d persists, its tree's format alone %d", i, got, want)
		}
	}
}
