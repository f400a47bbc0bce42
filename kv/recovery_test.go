package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"rntree/internal/pmem"
)

// A store that filled its arena reopens, from its snapshot and from a crash
// image with random eviction: every acknowledged key reads back and a Put
// still fails with ErrFull. Compact needs a fresh chunk before it can free
// one, so on a full store it fails with ErrFull too, changing nothing.
func TestFullStoreReopens(t *testing.T) {
	s, err := New(Options{ArenaSize: 512 << 10, MaxSegments: 1, ChunkSize: 16 << 10, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string]string{}
	pad := string(make([]byte, 200))
	for i := 0; ; i++ {
		k, v := fmt.Sprintf("k%05d", i), fmt.Sprintf("v%05d%s", i, pad)
		if i%5 == 4 {
			k = fmt.Sprintf("k%05d", i-4) // overwrites give chains more than one record
		}
		err := s.Put([]byte(k), []byte(v))
		if errors.Is(err, ErrFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		acked[k] = v
	}
	rng := rand.New(rand.NewSource(1))
	images := map[string][][]uint64{
		"snapshot": s.Snapshot(),
		"evicted":  {s.Arenas()[0].CrashImage(rng, 0.5)},
	}
	for name, imgs := range images {
		r, err := Open(imgs, Options{})
		if err != nil {
			t.Fatalf("%s: reopening a full store: %v", name, err)
		}
		if got := storeContents(r); !strMapsEqual(got, acked) {
			t.Fatalf("%s: reopened %d keys, want the %d acknowledged", name, len(got), len(acked))
		}
		if err := r.Put([]byte("one-more"), []byte(pad)); !errors.Is(err, ErrFull) {
			t.Fatalf("%s: Put into the reopened full store returned %v, want ErrFull", name, err)
		}
		if err := r.Compact(); !errors.Is(err, ErrFull) {
			t.Fatalf("%s: Compact of the full store returned %v, want ErrFull", name, err)
		}
		if got := storeContents(r); !strMapsEqual(got, acked) {
			t.Fatalf("%s: after the failed writes %d keys, want the %d acknowledged", name, len(got), len(acked))
		}
	}
}

// recount, Open's walk of every reachable record, allocates nothing per
// record: its Go allocations for 8k records equal those for 1k.
func TestRecountAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s, err := New(Options{ArenaSize: 32 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		// Overwrites and a tombstone give chains more than one record.
		for i := 0; i < n; i += 3 {
			if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v2")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete([]byte("key-000001")); err != nil {
			t.Fatal(err)
		}
		p := &s.parts[0]
		chunks := chunkChain(p)
		return testing.AllocsPerRun(5, func() {
			p.live.Store(0)
			if err := p.recount(chunks); err != nil {
				t.Fatal(err)
			}
			if got := p.live.Load(); got != int64(n-1) {
				t.Fatalf("recount found %d live keys, want %d", got, n-1)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("recount made %v allocations for 1k records, %v for 8k", small, large)
	}
}

// chunkChain returns the bases of p's log chunks, newest first.
func chunkChain(p *kvPart) []uint64 {
	var chunks []uint64
	for c := p.arena.Read8(p.headOff); c != pmem.NullOff; c = p.arena.Read8(c + chunkNextOff) {
		chunks = append(chunks, c)
	}
	return chunks
}

// Range allocates nothing per record: its Go allocations over 8k keys equal
// those over 1k, shadowed records and a tombstone among them.
func TestRangeAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		s, err := New(Options{ArenaSize: 32 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 3 {
			if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("value-2")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete([]byte("key-000001")); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			got := 0
			s.Range(func(k, v []byte) bool {
				if len(k) != len("key-000000") || (string(v) != "v" && string(v) != "value-2") {
					t.Fatalf("Range reported %q = %q", k, v)
				}
				got++
				return true
			})
			if got != n-1 {
				t.Fatalf("Range reported %d keys, want %d", got, n-1)
			}
		})
	}
	if small, large := allocs(1000), allocs(8000); small != large {
		t.Fatalf("Range made %v allocations over 1k keys, %v over 8k", small, large)
	}
}
