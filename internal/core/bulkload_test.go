package core

import (
	"math/rand"
	"testing"

	"rntree/internal/pmem"
	"rntree/internal/tree"
)

func TestBulkLoadBasic(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 64 << 20})
	recs := make([]tree.KV, 10_000)
	for i := range recs {
		recs[i] = tree.KV{Key: uint64(i) * 3, Value: uint64(i)}
	}
	tr, err := BulkLoad(a, Options{DualSlot: true}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != len(recs) {
		t.Fatalf("Len = %d, want %d", got, len(recs))
	}
	for _, r := range recs {
		if v, ok := tr.Find(r.Key); !ok || v != r.Value {
			t.Fatalf("Find(%d) = (%d,%v)", r.Key, v, ok)
		}
	}
	// Loaded tree must be fully writable and split correctly.
	for i := uint64(0); i < 5000; i++ {
		if err := tr.Insert(i*3+1, i); err != nil {
			t.Fatalf("insert after bulk load: %v", err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadPersistEconomy(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 64 << 20})
	recs := make([]tree.KV, 50_000)
	for i := range recs {
		recs[i] = tree.KV{Key: uint64(i), Value: 1}
	}
	if _, err := BulkLoad(a, Options{}, recs); err != nil {
		t.Fatal(err)
	}
	// One persist per leaf plus the root line — orders of magnitude fewer
	// than 2 per record.
	if p := a.Stats().Persists; p > uint64(len(recs))/10 {
		t.Fatalf("bulk load used %d persists for %d records", p, len(recs))
	}
}

func TestBulkLoadSurvivesCrash(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 64 << 20})
	recs := make([]tree.KV, 5000)
	for i := range recs {
		recs[i] = tree.KV{Key: uint64(i) * 7, Value: uint64(i) + 1}
	}
	tr, err := BulkLoad(a, Options{}, recs)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	a2 := reboot(t, a.CrashImage(nil, 0))
	tr2, err := CrashRecover(a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != len(recs) {
		t.Fatalf("recovered %d records", tr2.Len())
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 8 << 20})
	if _, err := BulkLoad(a, Options{}, []tree.KV{{Key: 5}, {Key: 5}}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := BulkLoad(a, Options{}, []tree.KV{{Key: 5}, {Key: 4}}); err == nil {
		t.Fatal("unsorted keys accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 8 << 20})
	tr, err := BulkLoad(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatal("empty bulk load not empty")
	}
	if err := tr.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestIteratorFullWalk(t *testing.T) {
	tr := newTree(t, Options{DualSlot: true}, 32)
	rng := rand.New(rand.NewSource(8))
	keys := map[uint64]bool{}
	for len(keys) < 3000 {
		k := rng.Uint64() % 1_000_000
		if keys[k] {
			continue
		}
		keys[k] = true
		if err := tr.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NewIterator(0)
	n := 0
	prev := uint64(0)
	for {
		kv, ok := it.Next()
		if !ok {
			break
		}
		if n > 0 && kv.Key <= prev {
			t.Fatalf("iterator out of order: %d after %d", kv.Key, prev)
		}
		if kv.Value != kv.Key+1 {
			t.Fatalf("wrong value for %d: %d", kv.Key, kv.Value)
		}
		prev = kv.Key
		n++
	}
	if n != len(keys) {
		t.Fatalf("iterator visited %d, want %d", n, len(keys))
	}
	// Exhausted iterator stays exhausted.
	if _, ok := it.Next(); ok {
		t.Fatal("iterator resurrected")
	}
}

func TestIteratorSeek(t *testing.T) {
	tr := newTree(t, Options{}, 0)
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Insert(i*10, i); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NewIterator(0)
	it.Seek(4995)
	kv, ok := it.Next()
	if !ok || kv.Key != 5000 {
		t.Fatalf("Seek: got (%v,%v)", kv, ok)
	}
	// Seek backwards as well.
	it.Seek(10)
	kv, ok = it.Next()
	if !ok || kv.Key != 10 {
		t.Fatalf("backward Seek: got (%v,%v)", kv, ok)
	}
}

func TestIteratorDuringWrites(t *testing.T) {
	tr := newTree(t, Options{DualSlot: true}, 32)
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(i*4, i); err != nil {
			t.Fatal(err)
		}
	}
	it := tr.NewIterator(0)
	n := 0
	prev := int64(-1)
	for {
		kv, ok := it.Next()
		if !ok {
			break
		}
		if int64(kv.Key) <= prev {
			t.Fatalf("out of order under writes: %d after %d", kv.Key, prev)
		}
		prev = int64(kv.Key)
		n++
		// Interleave writes that split leaves ahead of and behind the
		// iterator.
		if n%100 == 0 {
			for j := uint64(0); j < 50; j++ {
				_ = tr.Upsert(kv.Key+j*4+1, j)
			}
		}
	}
	if n < 2000 {
		t.Fatalf("iterator lost pre-existing records: %d", n)
	}
}
