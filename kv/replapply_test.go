package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rntree/internal/pmem"
)

// shippedBatch commits a workload on a fresh two-partition store and returns
// the store and the records its commit hook shipped, in ship order. Keys g
// and h share a partition, and the workload writes them G, H, G, then
// deletes h: a batch of these records has a hash repeated after another one
// and a tombstone. The other partition's records interleave with them.
func shippedBatch(t *testing.T, opts Options) (*Store, []ReplRecord) {
	t.Helper()
	src, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var recs []ReplRecord
	src.SetCommitHook(func(part int, lsn uint64, kind uint8, key, val []byte) {
		recs = append(recs, ReplRecord{Part: part, LSN: lsn, Kind: kind,
			Key: slices.Clone(key), Val: slices.Clone(val)})
	})
	g, h, x := []byte("g"), []byte("h"), []byte("x")
	for i := 0; src.PartitionOf(h) != src.PartitionOf(g); i++ {
		h = []byte(fmt.Sprintf("h%d", i))
	}
	for i := 0; src.PartitionOf(x) == src.PartitionOf(g); i++ {
		x = []byte(fmt.Sprintf("x%d", i))
	}
	put := func(k []byte, v string) {
		if err := src.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	put(g, "g1")
	put(x, "x1")
	put(h, "h1")
	put(g, "g2-a-longer-value-than-the-first")
	if err := src.Delete(h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		put([]byte(fmt.Sprintf("k%d", i)), fmt.Sprintf("v%d", i))
	}
	put(x, "x2")
	put(g, "g3")
	src.SetCommitHook(nil)
	return src, recs
}

func storeContents(s *Store) map[string]string {
	m := map[string]string{}
	s.Range(func(k, v []byte) bool {
		m[string(k)] = string(v)
		return true
	})
	return m
}

// reachableLSNs returns every LSN partition part's hash chains reach.
func reachableLSNs(t *testing.T, s *Store, part int) []uint64 {
	t.Helper()
	var lsns []uint64
	if err := s.ReplBacklog(part, 0, func(lsn uint64, _ uint8, _, _ []byte) bool {
		lsns = append(lsns, lsn)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return lsns
}

// A replica crashed at any persist site of a group apply recovers a
// watermark that is downward closed: in each partition, the reachable
// records are exactly the shipped ones at or below it, so resubscribing
// from it skips nothing. Re-applying the batch then converges to the source.
func TestReplApplyCrashPrefix(t *testing.T) {
	opts := Options{ArenaSize: 4 << 20, MaxSegments: 1, ChunkSize: 512, Partitions: 2}
	src, recs := shippedBatch(t, opts)
	want := storeContents(src)

	// run applies recs to a fresh replica, imaging its arenas at persist
	// site crashAt (a hook firing before or after a persist); it returns the
	// images (nil if the apply has fewer sites) and the number of sites.
	run := func(crashAt int, rng *rand.Rand, evict float64) ([][]uint64, int) {
		r, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		var imgs [][]uint64
		site := 0
		snap := func(_, _ uint64) {
			if site == crashAt {
				for _, a := range r.Arenas() {
					imgs = append(imgs, a.CrashImage(rng, evict))
				}
			}
			site++
		}
		for _, a := range r.Arenas() {
			a.SetHooks(&pmem.Hooks{BeforePersist: snap, AfterPersist: snap})
		}
		if err := r.ReplApply(recs); err != nil {
			t.Fatal(err)
		}
		return imgs, site
	}
	_, sites := run(-1, nil, 0)
	if sites < 40 {
		t.Fatalf("only %d persist sites in the apply", sites)
	}
	for _, evict := range []float64{0, 0.5} {
		rng := rand.New(rand.NewSource(1))
		for crashAt := 0; crashAt < sites; crashAt++ {
			imgs, _ := run(crashAt, rng, evict)
			r, err := Open(imgs, Options{})
			if err != nil {
				t.Fatalf("site %d evict %v: open: %v", crashAt, evict, err)
			}
			for part := 0; part < r.Partitions(); part++ {
				wm := r.ReplLSN(part)
				var below []uint64
				for _, rec := range recs {
					if rec.Part == part && rec.LSN <= wm {
						below = append(below, rec.LSN)
					}
				}
				if got := reachableLSNs(t, r, part); !slices.Equal(got, below) {
					t.Fatalf("site %d evict %v: partition %d watermark %d, reachable LSNs %v, shipped at or below it %v",
						crashAt, evict, part, wm, got, below)
				}
			}
			if err := r.ReplApply(recs); err != nil {
				t.Fatalf("site %d evict %v: re-apply: %v", crashAt, evict, err)
			}
			if got := storeContents(r); !strMapsEqual(got, want) {
				t.Fatalf("site %d evict %v: re-applied replica %v, source %v", crashAt, evict, got, want)
			}
			if !slices.Equal(r.ReplLSNs(), src.ReplLSNs()) {
				t.Fatalf("site %d evict %v: watermarks %v, source %v", crashAt, evict, r.ReplLSNs(), src.ReplLSNs())
			}
		}
	}
}

// A group apply costs what applying its records one by one costs, less one
// span persist per record that shares its run: runs break at a repeated
// hash, so the G, H, G records of partition g make two runs.
func TestReplApplyRunSplit(t *testing.T) {
	opts := Options{ArenaSize: 4 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2}
	_, recs := shippedBatch(t, opts)
	persists := func(batches ...[]ReplRecord) (*Store, uint64) {
		r, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		before := r.Stats().Persists
		for _, b := range batches {
			if err := r.ReplApply(b); err != nil {
				t.Fatal(err)
			}
		}
		return r, r.Stats().Persists - before
	}
	var singles [][]ReplRecord
	for i := range recs {
		singles = append(singles, recs[i:i+1])
	}
	one, perRecord := persists(singles...)
	group, grouped := persists(recs)
	// Count the runs the way ReplApply cuts them: a partition's records in
	// LSN order, a new run at each key its current run already holds.
	runs := 0
	for part := 0; part < 2; part++ {
		var seen []string
		for _, rec := range recs {
			if rec.Part != part {
				continue
			}
			if len(seen) == 0 || slices.Contains(seen, string(rec.Key)) {
				runs++
				seen = seen[:0]
			}
			seen = append(seen, string(rec.Key))
		}
	}
	if runs < 3 {
		t.Fatalf("workload cut into %d runs; it must repeat a hash inside a partition", runs)
	}
	if saved := perRecord - grouped; saved != uint64(len(recs)-runs) {
		t.Fatalf("group apply of %d records in %d runs issued %d persists, one by one %d: saved %d, want %d",
			len(recs), runs, grouped, perRecord, saved, len(recs)-runs)
	}
	if !strMapsEqual(storeContents(one), storeContents(group)) {
		t.Fatal("group and one-by-one applies disagree")
	}
}

// Records at or below the watermark, or at or below an earlier record of
// the batch, are skipped; a batch of nothing new persists nothing.
func TestReplApplySkipsApplied(t *testing.T) {
	r, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	part := r.PartitionOf(key)
	rec := func(lsn uint64, val string) ReplRecord {
		return ReplRecord{Part: part, LSN: lsn, Kind: ReplPut, Key: key, Val: []byte(val)}
	}
	if err := r.ReplApply([]ReplRecord{rec(1, "v1"), rec(2, "v2")}); err != nil {
		t.Fatal(err)
	}
	before := r.Stats().Persists
	if err := r.ReplApply([]ReplRecord{rec(1, "stale"), rec(2, "stale")}); err != nil {
		t.Fatal(err)
	}
	if n := r.Stats().Persists - before; n != 0 {
		t.Fatalf("a batch below the watermark issued %d persists", n)
	}
	if err := r.ReplApply([]ReplRecord{rec(2, "stale"), rec(5, "v5"), rec(4, "stale"), rec(5, "stale")}); err != nil {
		t.Fatal(err)
	}
	if v, err := r.Get(key); err != nil || string(v) != "v5" {
		t.Fatalf("after replays: %q, %v", v, err)
	}
	if got := r.ReplLSN(part); got != 5 {
		t.Fatalf("watermark %d, want 5", got)
	}
}

// A bad record anywhere in a batch fails the whole batch before anything of
// it is applied.
func TestReplApplyRejectsBeforeApplying(t *testing.T) {
	r, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	good := []byte("good")
	gp := r.PartitionOf(good)
	bad := []byte("bad")
	bp := r.PartitionOf(bad)
	for name, rec := range map[string]ReplRecord{
		"kind":      {Part: bp, LSN: 1, Kind: 99, Key: bad},
		"geometry":  {Part: (bp + 1) % r.Partitions(), LSN: 1, Kind: ReplPut, Key: bad},
		"partition": {Part: r.Partitions(), LSN: 1, Kind: ReplPut, Key: bad},
		"empty key": {Part: bp, LSN: 1, Kind: ReplPut},
	} {
		before := r.Stats().Persists
		err := r.ReplApply([]ReplRecord{{Part: gp, LSN: 1, Kind: ReplPut, Key: good, Val: []byte("v")}, rec})
		if err == nil {
			t.Fatalf("%s: bad record accepted", name)
		}
		if n := r.Stats().Persists - before; n != 0 || r.Has(good) || r.ReplLSN(gp) != 0 {
			t.Fatalf("%s: rejected batch persisted %d times, applied its good record %v, watermark %d",
				name, n, r.Has(good), r.ReplLSN(gp))
		}
	}
}

// A store that fills mid-run stops the apply with ErrFull and leaves the
// watermark at the last record it published, the recovered one too: every
// record at or below it is applied and none above. The log can fill (the
// run appends, and publishes nothing) or the index (the run publishes a
// prefix).
func TestReplApplyFullMidRun(t *testing.T) {
	for _, c := range []struct {
		name       string
		opts       Options
		val        []byte
		n          int
		wantPrefix bool // the failing run publishes some of its records
	}{
		{"log", Options{ArenaSize: 512 << 10, MaxSegments: 1, ChunkSize: 16 << 10}, make([]byte, 200), 10000, false},
		{"index", Options{ArenaSize: 192 << 10, MaxSegments: 1, ChunkSize: 128 << 10}, nil, 2000, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := New(c.opts)
			if err != nil {
				t.Fatal(err)
			}
			var recs []ReplRecord
			add := func(key string) {
				recs = append(recs, ReplRecord{LSN: uint64(len(recs)) + 1, Kind: ReplPut, Key: []byte(key), Val: c.val})
			}
			for i := 0; i < 10; i++ {
				add(fmt.Sprintf("k%05d", i))
			}
			add("k00000") // a repeated hash: the second run starts here
			for i := 10; i < c.n; i++ {
				add(fmt.Sprintf("k%05d", i))
			}
			err = r.ReplApply(recs)
			if !errors.Is(err, ErrFull) {
				t.Fatalf("apply past the arena returned %v, want ErrFull", err)
			}
			wm := r.ReplLSN(0)
			if wm < 10 || wm >= uint64(len(recs)) || (wm > 10) != c.wantPrefix {
				t.Fatalf("watermark %d, want 10 < it < %d: %v", wm, len(recs), c.wantPrefix)
			}
			want := map[string]string{}
			for _, rec := range recs[:wm] {
				want[string(rec.Key)] = string(rec.Val)
			}
			if got := storeContents(r); !strMapsEqual(got, want) {
				t.Fatalf("%d keys, want the %d of the records at or below watermark %d", len(got), len(want), wm)
			}
			// The full store reopens, at the same watermark and contents.
			o, err := Open(r.Snapshot(), Options{})
			if err != nil {
				t.Fatalf("reopening the full store: %v", err)
			}
			if got := o.ReplLSN(0); got != wm {
				t.Fatalf("recovered watermark %d, want %d", got, wm)
			}
			if got := storeContents(o); !strMapsEqual(got, want) {
				t.Fatalf("reopened %d keys, want %d", len(got), len(want))
			}
		})
	}
}

// Once warm, a group apply allocates nothing.
func TestReplApplyAllocs(t *testing.T) {
	r, err := New(Options{ArenaSize: 16 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var recs []ReplRecord
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%24)) // repeats cut runs
		recs = append(recs, ReplRecord{Part: r.PartitionOf(key), Kind: ReplPut, Key: key, Val: []byte("value")})
	}
	lsn := uint64(0)
	apply := func() {
		for i := range recs {
			lsn++
			recs[i].LSN = lsn
		}
		if err := r.ReplApply(recs); err != nil {
			t.Fatal(err)
		}
	}
	apply()
	if n := testing.AllocsPerRun(100, apply); n != 0 {
		t.Fatalf("a warm group apply made %v allocations", n)
	}
}
