package rntree

import (
	"testing"
	"time"
)

func TestPublicAPICRUD(t *testing.T) {
	tr, err := New(Options{DualSlotArray: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Insert(5, 1); err != ErrKeyExists {
		t.Fatalf("dup insert: %v", err)
	}
	if v, ok := tr.Find(500); !ok || v != 1500 {
		t.Fatalf("Find(500) = %d,%v", v, ok)
	}
	if err := tr.Update(500, 7); err != nil {
		t.Fatal(err)
	}
	if err := tr.Remove(501); err != nil {
		t.Fatal(err)
	}
	got := 0
	tr.Scan(0, 0, func(_, _ uint64) bool { got++; return true })
	if got != 999 {
		t.Fatalf("scan visited %d", got)
	}
	s := tr.Stats()
	if s.Persists == 0 || s.Leaves == 0 || s.HTM.Commits == 0 {
		t.Fatalf("stats look empty: %+v", s)
	}
}

func TestCrashRecoverPublic(t *testing.T) {
	tr, err := New(Options{ArenaSize: 16 << 20, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		if err := tr.Insert(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Crash(0.3)
	tr2, err := Recover(snap, Options{DualSlotArray: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.DualSlot() {
		t.Fatal("recovered tree lost DualSlotArray option")
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := tr2.Find(i); !ok || v != i+1 {
			t.Fatalf("recovered Find(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestCheckpointPublic(t *testing.T) {
	tr, err := New(Options{ArenaSize: 16 << 20, LeafCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Checkpoint()
	tr2, err := Recover(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tr2.Find(1998); !ok || v != 999 {
		t.Fatalf("Find = %d,%v", v, ok)
	}
	// LeafCapacity must come from the snapshot.
	if err := tr2.Insert(1_000_001, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBaselinesConstructible(t *testing.T) {
	for _, k := range []Kind{KindNVTree, KindNVTreeCond, KindWBTree, KindWBTreeSO, KindFPTree, KindCDDS} {
		ix, err := NewBaseline(k, Options{ArenaSize: 16 << 20})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := ix.Insert(1, 2); err != nil {
			t.Fatalf("%s insert: %v", k, err)
		}
		if v, ok := ix.Find(1); !ok || v != 2 {
			t.Fatalf("%s find: %d,%v", k, v, ok)
		}
	}
	if _, err := NewBaseline("bogus", Options{}); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestPartitionedPublicAPI(t *testing.T) {
	tr, err := New(Options{DualSlotArray: true, Partitions: 8, ArenaSize: 64 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		if err := tr.Insert(i, i^7); err != nil {
			t.Fatal(err)
		}
	}
	if s := tr.Stats(); s.Partitions != 8 || s.Leaves == 0 || s.HTM.Commits == 0 {
		t.Fatalf("forest stats: %+v", s)
	}
	// Scans stay globally ordered across partitions.
	var prev uint64
	first := true
	n := tr.Scan(0, 0, func(k, _ uint64) bool {
		if !first && k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
	if n != 5000 {
		t.Fatalf("scan visited %d", n)
	}
	// Crash + recover the whole forest; partition count comes from the
	// snapshot, options only restyle the reopened tree.
	snap := tr.Crash(0.4)
	tr2, err := Recover(snap, Options{DualSlotArray: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.Stats().Partitions; got != 8 {
		t.Fatalf("recovered partitions = %d", got)
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := tr2.Find(i); !ok || v != i^7 {
			t.Fatalf("recovered Find(%d) = %d,%v", i, v, ok)
		}
	}
}

func TestCrashSamplingDeterministicPerTree(t *testing.T) {
	build := func(seed int64) *Tree {
		// Dual slot mode keeps the transient slot arrays dirty (they are
		// never persisted), so eviction sampling has real lines to pick.
		tr, err := New(Options{DualSlotArray: true, Partitions: 2, ArenaSize: 16 << 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 2000; i++ {
			if err := tr.Insert(i, i); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	// Same seed + same history => identical eviction sampling, crash after
	// crash; a different seed diverges.
	a, b, c := build(7), build(7), build(8)
	differs := false
	for round := 0; round < 3; round++ {
		sa, sb, sc := a.Crash(0.5), b.Crash(0.5), c.Crash(0.5)
		for p := range sa.imgs {
			for w := range sa.imgs[p] {
				if sa.imgs[p][w] != sb.imgs[p][w] {
					t.Fatalf("round %d: same-seed trees diverged (partition %d word %d)", round, p, w)
				}
				if sa.imgs[p][w] != sc.imgs[p][w] {
					differs = true
				}
			}
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical eviction sampling")
	}
}

func TestBulkLoadPartitioned(t *testing.T) {
	var recs []KV
	for i := uint64(0); i < 3000; i++ {
		recs = append(recs, KV{Key: i * 2, Value: i})
	}
	tr, err := BulkLoad(Options{Partitions: 4, ArenaSize: 32 << 20}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(recs) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Find(4000); !ok || v != 2000 {
		t.Fatalf("Find(4000) = %d,%v", v, ok)
	}
}

func TestLatencyOptionsApplied(t *testing.T) {
	tr, err := New(Options{ArenaSize: 16 << 20, FlushLatency: 200 * time.Microsecond, FenceLatency: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	// Two persistent instructions at >=300us each.
	if el := time.Since(t0); el < 500*time.Microsecond {
		t.Fatalf("latency model not applied: insert took %v", el)
	}
}
