package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rntree/internal/pmem"
)

// TestCloseDuringConcurrentPuts is the server-drain regression: Close
// racing in-flight Puts must wait them out and convert late arrivals into
// clean ErrClosed errors — never panic core.Close's quiescence assertion —
// and every Put that returned nil before Close must survive reopen.
func TestCloseDuringConcurrentPuts(t *testing.T) {
	s, err := New(Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	acked := make([]map[string]string, writers)
	start := make(chan struct{})
	var acks atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = map[string]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; ; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				v := fmt.Sprintf("v%d-%d", w, i)
				err := s.Put([]byte(k), []byte(v))
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w][k] = v
				acks.Add(1)
			}
		}(w)
	}
	close(start)
	// Let the writers get going, then close mid-flight.
	for acks.Load() < 100 {
		runtime.Gosched()
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := s.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put([]byte("late"), []byte("x")); err != ErrClosed {
		t.Fatalf("Put after Close: %v", err)
	}
	if err := s.Delete([]byte("late")); err != ErrClosed {
		t.Fatalf("Delete after Close: %v", err)
	}
	if err := s.Compact(); err != ErrClosed {
		t.Fatalf("Compact after Close: %v", err)
	}
	if errs := s.PutBatch([][]byte{[]byte("k")}, [][]byte{[]byte("v")}); errs == nil || errs[0] != ErrClosed {
		t.Fatalf("PutBatch after Close: %v", errs)
	}

	// Reads remain valid on the closed store...
	for w := range acked {
		for k, v := range acked[w] {
			got, err := s.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("closed-store Get(%s) = %q, %v", k, got, err)
			}
		}
	}
	// ...and every acknowledged write survives the clean image.
	s2, err := Open(s.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for w := range acked {
		n += len(acked[w])
		for k, v := range acked[w] {
			got, err := s2.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("reopened Get(%s) = %q, %v", k, got, err)
			}
		}
	}
	if s2.Len() != n {
		t.Fatalf("reopened store has %d keys, acked %d", s2.Len(), n)
	}
}

func TestCheckpointReopens(t *testing.T) {
	s, err := New(Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	imgs, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err != ErrClosed {
		t.Fatalf("second Checkpoint: %v", err)
	}
	s2, err := Open(imgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 500 {
		t.Fatalf("reopened %d keys, want 500", s2.Len())
	}
}

// TestCloseOpenPersists counts the persists of a clean shutdown and of the
// reopen after it, per partition. Close persists only the index's clean
// state: two lines per leaf and the clean flag. Opening the clean image
// persists the clean flag's disarm alone: the chunk appends continue in is
// allocated by the first append, so the heap's bump mark does not move.
func TestCloseOpenPersists(t *testing.T) {
	s, err := New(Options{ArenaSize: 8 << 20, MaxSegments: 1, ChunkSize: 1 << 12, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := make([]uint64, len(s.parts))
	for i := range s.parts {
		before[i] = s.parts[i].arena.Stats().Persists
	}
	imgs, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.parts {
		p := &s.parts[i]
		if got, want := p.arena.Stats().Persists-before[i], 2*uint64(p.tree.LeafCount())+1; got != want {
			t.Errorf("partition %d: Close persisted %d times, want %d", i, got, want)
		}
	}
	arenas := make([]*pmem.Arena, len(imgs))
	bumps := make([]uint64, len(imgs))
	for i, img := range imgs {
		if arenas[i], err = pmem.Recover(img, pmem.Config{}); err != nil {
			t.Fatal(err)
		}
		before[i], bumps[i] = arenas[i].Stats().Persists, arenas[i].Bump()
	}
	if _, err := OpenArenas(arenas, Options{}); err != nil {
		t.Fatal(err)
	}
	for i, a := range arenas {
		if got := a.Stats().Persists - before[i]; got != 1 || a.Bump() != bumps[i] {
			t.Errorf("partition %d: Open persisted %d times and moved the bump mark %d -> %d, want once and no move",
				i, got, bumps[i], a.Bump())
		}
	}
}

func TestPutBatchBasic(t *testing.T) {
	s := newStore(t)
	keys := [][]byte{
		[]byte("a"), []byte("b"), nil, []byte("c"), []byte("a"),
	}
	vals := [][]byte{
		[]byte("1"), []byte("2"), []byte("x"), []byte("3"), []byte("1b"),
	}
	errs := s.PutBatch(keys, vals)
	if errs == nil {
		t.Fatal("expected a per-pair error slice (empty key at index 2)")
	}
	for i, e := range errs {
		switch i {
		case 2:
			if e != ErrEmptyKey {
				t.Fatalf("pair 2: %v", e)
			}
		default:
			if e != nil {
				t.Fatalf("pair %d: %v", i, e)
			}
		}
	}
	// Duplicate key within the batch: last write wins.
	for k, want := range map[string]string{"a": "1b", "b": "2", "c": "3"} {
		got, err := s.Get([]byte(k))
		if err != nil || string(got) != want {
			t.Fatalf("Get(%s) = %q, %v", k, got, err)
		}
	}
	st := s.Stats()
	if st.LiveKeys != 3 {
		t.Fatalf("LiveKeys = %d, want 3", st.LiveKeys)
	}
	if st.DeadRecords != 1 {
		t.Fatalf("DeadRecords = %d, want 1 (the shadowed duplicate)", st.DeadRecords)
	}
}

// TestPutBatchMatchesSequential cross-checks a batched load against the
// same pairs applied with individual Puts: equal contents, equal
// accounting, and strictly fewer persist fences on the batch side (the
// point of batching).
func TestPutBatchMatchesSequential(t *testing.T) {
	mk := func() *Store {
		s, err := New(Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const n = 256
	var keys, vals [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%04d", i%200))) // some overwrites
		vals = append(vals, bytes.Repeat([]byte{byte(i)}, 1+i%40))
	}
	seq, bat := mk(), mk()
	base := seq.Stats().Persists
	for i := range keys {
		if err := seq.Put(keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	seqPersists := seq.Stats().Persists - base
	base = bat.Stats().Persists
	if errs := bat.PutBatch(keys, vals); errs != nil {
		t.Fatalf("PutBatch: %v", errs)
	}
	batPersists := bat.Stats().Persists - base

	if a, b := seq.Stats(), bat.Stats(); a.LiveKeys != b.LiveKeys || a.DeadRecords != b.DeadRecords {
		t.Fatalf("accounting diverged: sequential %+v batch %+v", a, b)
	}
	seq.Range(func(k, v []byte) bool {
		got, err := bat.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("batch store Get(%s) = %q, %v; want %q", k, got, err, v)
		}
		return true
	})
	if batPersists >= seqPersists {
		t.Fatalf("batch path did not amortize persists: batch=%d sequential=%d", batPersists, seqPersists)
	}
	t.Logf("persists: sequential=%d batch=%d (%.1fx fewer)", seqPersists, batPersists, float64(seqPersists)/float64(batPersists))
}

// TestPutBatchDurable crash-tests the batch path: after PutBatch returns,
// a zero-eviction crash image must contain every pair.
func TestPutBatchDurable(t *testing.T) {
	s, err := New(Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 14, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var keys, vals [][]byte
	for i := 0; i < 300; i++ {
		keys = append(keys, []byte(fmt.Sprintf("d%03d", i)))
		vals = append(vals, bytes.Repeat([]byte{byte(i)}, 600)) // force chunk rollovers
	}
	if errs := s.PutBatch(keys, vals); errs != nil {
		t.Fatalf("PutBatch: %v", errs)
	}
	s2, err := Open(s.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		got, err := s2.Get(keys[i])
		if err != nil || !bytes.Equal(got, vals[i]) {
			t.Fatalf("crash-recovered Get(%s): %v", keys[i], err)
		}
	}
}

// TestPutBatchConcurrent races batches against individual writers and
// Close, under -race.
func TestPutBatchConcurrent(t *testing.T) {
	s, err := New(Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var keys, vals [][]byte
				for j := 0; j < 16; j++ {
					keys = append(keys, []byte(fmt.Sprintf("b%d-%d-%d", w, i, j)))
					vals = append(vals, []byte("v"))
				}
				for _, e := range s.PutBatch(keys, vals) {
					if e != nil && e != ErrClosed {
						t.Errorf("batch: %v", e)
					}
				}
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if err := s.Put([]byte(fmt.Sprintf("p%d-%d", w, i)), []byte("v")); err != nil && err != ErrClosed {
					t.Errorf("put: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
