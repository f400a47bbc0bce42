package kv

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// routed is the routed key of route followed by rest.
func routed(route, rest string) []byte { return append(AppendRoute(nil, []byte(route)), rest...) }

// TestRoutedKeys: a routed key lives in the partition of its route bytes,
// and any other key — a 0x01 key too short for its length field, or one whose
// length field overruns it, included — in its own. Routing is all it
// changes: such keys store, read, range and delete like any other.
func TestRoutedKeys(t *testing.T) {
	s, err := New(Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		route := fmt.Sprintf("name-%d", i)
		want := s.f.PartitionFor(Hash([]byte(route)))
		for _, rest := range []string{"", "H", "hfield", "X"} {
			k := routed(route, rest)
			if got := s.PartitionOf(k); got != want {
				t.Fatalf("%q routes to %d, its route %q to %d", k, got, route, want)
			}
			if err := s.Put(k, []byte(rest)); err != nil {
				t.Fatal(err)
			}
			spread[s.f.PartitionFor(Hash(k))] = true
		}
	}
	if len(spread) < 2 {
		t.Fatal("every routed key hashes to one partition: the test proves nothing")
	}
	for _, k := range [][]byte{{RouteByte}, {RouteByte, 'z'}, {RouteByte, 9, 0, 'a', 'b'}} {
		if got, want := s.PartitionOf(k), s.f.PartitionFor(Hash(k)); got != want {
			t.Fatalf("%q routes to %d, want its own partition %d", k, got, want)
		}
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n != 64*4+3 {
		t.Fatalf("Len = %d, want %d", n, 64*4+3)
	}
	for i := 0; i < 64; i++ {
		k := routed(fmt.Sprintf("name-%d", i), "hfield")
		if v, err := s.Get(k); err != nil || string(v) != "hfield" {
			t.Fatalf("Get %q = %q, %v", k, v, err)
		}
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateStep: a step commits what it queued in one batch — an absent key's
// delete skipped, the hook fired in order — and publishes all of it or none:
// a record that cannot be appended, or a key routed to another partition,
// leaves every key of the step as it was and fires no hook. A tree publish
// that fails stops the publishes after the keys queued before it.
func TestUpdateStep(t *testing.T) {
	s, err := New(Options{ArenaSize: 16 << 20, ChunkSize: 1024, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	var hooked []string
	s.SetCommitHook(func(_ int, _ uint64, _ uint8, key, _ []byte) { hooked = append(hooked, string(key)) })
	a, b, gone := routed("n", "a"), routed("n", "b"), routed("n", "gone")
	err = s.Update([]byte("n"), func(tx *Tx) error {
		tx.Put(a, []byte("1"))
		tx.Delete(gone)
		tx.Put(b, []byte("2"))
		return nil
	})
	if err != nil || len(hooked) != 2 || hooked[0] != string(a) || hooked[1] != string(b) {
		t.Fatalf("step: %v, hook saw %q", err, hooked)
	}

	other := "m"
	for s.PartitionOf([]byte(other)) == s.PartitionOf([]byte("n")) {
		other += "m"
	}
	for _, tc := range []struct {
		what  string
		queue func(tx *Tx)
		want  error
	}{
		{"a record larger than a chunk", func(tx *Tx) { tx.Put(b, make([]byte, 2048)) }, ErrTooLarge},
		{"a key of another partition", func(tx *Tx) { tx.Put(routed(other, "x"), []byte("3")) }, nil},
	} {
		hooked = hooked[:0]
		lsn := s.ReplLSN(s.PartitionOf([]byte("n")))
		err := s.Update([]byte("n"), func(tx *Tx) error {
			tx.Delete(a)
			tx.Put(routed("n", "c"), []byte("3"))
			tc.queue(tx)
			return nil
		})
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: Update returned %v, want %v", tc.what, err, tc.want)
		}
		if v, err := s.Get(a); err != nil || string(v) != "1" || s.Has(routed("n", "c")) || len(hooked) != 0 {
			t.Fatalf("%s: the failed step published: a = %q, %v; c present %v; hook saw %q",
				tc.what, v, err, s.Has(routed("n", "c")), hooked)
		}
		if tc.want == nil && s.ReplLSN(s.PartitionOf([]byte("n"))) != lsn {
			t.Fatalf("%s: a step refused before its commit took LSNs", tc.what)
		}
	}

	// fn's error is returned, and what fn queued before it still commits.
	stop := errors.New("stop")
	if err := s.Update([]byte("n"), func(tx *Tx) error { tx.Delete(a); return stop }); err != stop || s.Has(a) {
		t.Fatalf("Update = %v, a present %v; want fn's error and a deleted", err, s.Has(a))
	}

	// A tree publish that fails ends the step's publishes: the key queued
	// before it stays published, the ones after it do not, and the hook fires
	// for the published one alone — here a field, then a header whose leaf is
	// full on a full heap, then an expiry record's delete.
	t.Run("publish fails on the second key", func(t *testing.T) { updateStepPublishFails(t) })
}

// updateStepPublishFails builds a one-partition store whose tree keys are
// chosen: two leaves, the right one filled on a heap with nothing left to
// allocate, so every tree publish there fails (a full leaf must split) while
// the left leaf has room.
func updateStepPublishFails(t *testing.T) {
	s, err := New(Options{ArenaSize: 1 << 18, MaxSegments: 1, ChunkSize: 1 << 14, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	field, header, expiry := routed("n", "hf"), routed("n", "H"), routed("n", "X")
	hashes := map[string]uint64{string(field): 1, string(expiry): 2, string(header): 1 << 41}
	filler := func(i uint64) []byte {
		k := routed("n", fmt.Sprintf("fill-%d", i))
		hashes[string(k)] = i
		return k
	}
	s.hash = func(k []byte) uint64 {
		if h, ok := hashes[string(k)]; ok {
			return h
		}
		return Hash(k)
	}
	// Split the root leaf (64 entries) once: its 65th key moves the upper half
	// of the fillers into a second leaf, and the left one keeps 32 free.
	if err := s.Put(expiry, []byte("deadline")); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1000); i < 1064; i++ {
		if err := s.Put(filler(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	p := &s.parts[0]
	for _, size := range []uint64{4096, 64} {
		for {
			if _, err := p.arena.Alloc(size); err != nil {
				break
			}
		}
	}
	full := false
	for i := uint64(1 << 40); !full && i < 1<<40+128; i++ {
		err := s.Put(filler(i), []byte("v"))
		if full = err != nil; full && !errors.Is(err, ErrFull) {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("the right leaf never filled: the test proves nothing")
	}

	var hooked []string
	s.SetCommitHook(func(_ int, _ uint64, _ uint8, key, _ []byte) { hooked = append(hooked, string(key)) })
	err = s.Update([]byte("n"), func(tx *Tx) error {
		tx.Put(field, []byte("v"))
		tx.Put(header, []byte("lists hf"))
		tx.Delete(expiry)
		return nil
	})
	if !errors.Is(err, ErrFull) {
		t.Fatalf("Update = %v, want ErrFull", err)
	}
	if v, err := s.Get(field); err != nil || string(v) != "v" {
		t.Fatalf("field before the failed publish: %q, %v; want it published", v, err)
	}
	if s.Has(header) || !s.Has(expiry) {
		t.Fatalf("header present %v, expiry present %v: a key after the failed publish was published", s.Has(header), s.Has(expiry))
	}
	if len(hooked) != 1 || hooked[0] != string(field) {
		t.Fatalf("hook saw %q, want the field alone", hooked)
	}
	if err := p.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateSerialisesSteps: steps on one route exclude each other, so every
// read-modify-write of a counter (here, the length of its value) lands.
func TestUpdateSerialisesSteps(t *testing.T) {
	s, err := New(Options{ArenaSize: 16 << 20, ChunkSize: 1 << 14, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	key := routed("ctr", "n")
	const writers, each = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := s.Update([]byte("ctr"), func(tx *Tx) error {
					v, _ := s.Get(key)
					tx.Put(key, append(v, '.'))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, err := s.Get(key)
	if err != nil || len(v) != writers*each {
		t.Fatalf("counter at %d after %d increments (%v)", len(v), writers*each, err)
	}
}

// TestCompactFreesAfterReaders: Compact frees the chunks it cuts while
// lock-free readers walk them. Back-to-back compactions recycle those chunks
// at once, so a free that did not wait out the readers is a data race under
// -race, and may hand a reader another record's bytes without it.
func TestCompactFreesAfterReaders(t *testing.T) {
	s, err := New(Options{ArenaSize: 16 << 20, ChunkSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 48
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 120) }
	for i := 0; i < keys; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%02d", i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				i := n % keys
				if v, err := s.Get([]byte(fmt.Sprintf("key-%02d", i))); err != nil || !bytes.Equal(v, val(i)) {
					t.Errorf("key-%02d = %v, %v during compaction", i, v, err)
					return
				}
				if n%keys == 0 {
					s.Range(func(_, _ []byte) bool { return true })
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
