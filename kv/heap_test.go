package kv

import (
	"errors"
	"fmt"
	"testing"
)

// TestStoreGrowsPastInitialArena: a partition whose initial arena fills up
// must absorb further writes by appending heap segments instead of failing
// with ErrFull, and the grown image must reopen with everything intact.
func TestStoreGrowsPastInitialArena(t *testing.T) {
	opts := Options{
		ArenaSize:   1 << 17,
		GrowSize:    1 << 16,
		MaxSegments: 6,
		ChunkSize:   1 << 12,
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 400)
	want := map[string]string{}
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("grow-%04d", i)
		for j := range val {
			val[j] = byte(i + j)
		}
		if err := s.Put([]byte(k), val); err != nil {
			t.Fatalf("put %d failed on a growable store: %v", i, err)
		}
		want[k] = string(val)
	}
	a := s.parts[0].arena
	if a.Segments() < 2 {
		t.Fatalf("store absorbed %d bytes without growing (segments=%d); shrink the workload margin", 600*400, a.Segments())
	}
	if err := a.CheckHeap(); err != nil {
		t.Fatalf("heap inconsistent after growth: %v", err)
	}

	imgs, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(imgs, Options{})
	if err != nil {
		t.Fatalf("reopen of grown store: %v", err)
	}
	for k, v := range want {
		got, err := s2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("key %q lost across grown-image reopen (err=%v)", k, err)
		}
	}
	// The reopened store keeps growing.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("more-%04d", i)
		if err := s2.Put([]byte(k), val); err != nil {
			t.Fatalf("post-reopen put: %v", err)
		}
	}
}

// TestPutBatchOOMRetrySafe: exhausting a non-growable partition mid-batch
// must surface per-pair typed ErrFull errors, keep every acknowledged pair
// readable, and leave both the heap and the index consistent under retry.
func TestPutBatchOOMRetrySafe(t *testing.T) {
	s, err := New(Options{
		ArenaSize:   1 << 16,
		MaxSegments: 1, // growth disabled: exhaustion must surface, not grow
		ChunkSize:   1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 512)
	want := map[string]string{}
	var failedKeys [][]byte
	for b := 0; b < 200 && failedKeys == nil; b++ {
		keys := make([][]byte, 16)
		vals := make([][]byte, 16)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("b%03d-%02d", b, i))
			vals[i] = val
		}
		errs := s.PutBatch(keys, vals)
		if errs == nil {
			for i := range keys {
				want[string(keys[i])] = string(vals[i])
			}
			continue
		}
		for i, e := range errs {
			if e == nil {
				want[string(keys[i])] = string(vals[i])
				continue
			}
			if !errors.Is(e, ErrFull) {
				t.Fatalf("pair %d failed untyped: %v", i, e)
			}
			failedKeys = append(failedKeys, keys[i])
		}
	}
	if failedKeys == nil {
		t.Fatal("store never filled; enlarge the workload")
	}
	verify := func(tag string) {
		t.Helper()
		for k, v := range want {
			got, err := s.Get([]byte(k))
			if err != nil || string(got) != v {
				t.Fatalf("%s: acked key %q lost (err=%v)", tag, k, err)
			}
		}
		p := &s.parts[0]
		if err := p.tree.CheckInvariants(); err != nil {
			t.Fatalf("%s: index inconsistent: %v", tag, err)
		}
		if err := p.arena.CheckHeap(); err != nil {
			t.Fatalf("%s: heap inconsistent: %v", tag, err)
		}
	}
	verify("after mid-batch OOM")
	// Retrying the failed pairs is safe: each either commits (and is then
	// readable) or fails with the same typed error.
	for _, k := range failedKeys {
		if err := s.Put(k, val); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("retry of %q failed untyped: %v", k, err)
			}
		} else {
			want[string(k)] = string(val)
		}
	}
	verify("after retries")
	if _, err := s.Get([]byte("never-written")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("miss surfaced as %v, want ErrNotFound", err)
	}
}
