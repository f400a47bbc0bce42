package kv

import (
	"fmt"
	"testing"

	"rntree/internal/pmem"
)

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
