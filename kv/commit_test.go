package kv

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"rntree/internal/pmem"
	"rntree/internal/race"
)

// TestCommitMixedBatch drives stores and removals through one Commit and
// cross-checks it against the same mutations issued one by one: equal
// per-entry errors, equal contents and accounting, LSNs taken only by the
// entries that appended a record, and the commit hook fired once per
// committed entry in LSN order.
func TestCommitMixedBatch(t *testing.T) {
	mk := func() (*Store, *[]uint64) {
		s, err := New(Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 14, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex    // the hook is serialized per partition, not across them
		var shipped []uint64 // part<<32 | lsn, in hook order
		s.SetCommitHook(func(part int, lsn uint64, kind uint8, key, val []byte) {
			mu.Lock()
			shipped = append(shipped, uint64(part)<<32|lsn)
			mu.Unlock()
		})
		for i := 0; i < 8; i++ {
			if err := s.Put([]byte(fmt.Sprintf("old%d", i)), []byte("o")); err != nil {
				t.Fatal(err)
			}
		}
		shipped = shipped[:0]
		return s, &shipped
	}
	var muts []Mutation
	add := func(del bool, key, val string) {
		muts = append(muts, Mutation{Key: []byte(key), Val: []byte(val), Delete: del})
	}
	add(false, "a", "1")
	add(true, "a", "") // PUT k; DEL k in one batch: gone
	add(true, "b", "") // absent: ErrNotFound, no record, no LSN
	add(false, "b", "2")
	add(true, "old0", "")
	add(false, "old0", "again") // DEL k; PUT k: present
	add(false, "", "empty")
	add(true, "old1", "")
	add(true, "old1", "") // second removal of the same key: absent by then
	for i := 0; i < 24; i++ {
		add(false, fmt.Sprintf("n%02d", i), "v")
		add(i%3 == 0, fmt.Sprintf("old%d", 2+i%6), "w")
	}

	seq, _ := mk()
	want := make([]error, len(muts))
	for i, m := range muts {
		if m.Delete {
			want[i] = seq.Delete(m.Key)
		} else {
			want[i] = seq.Put(m.Key, m.Val)
		}
	}

	bat, shipped := mk()
	before := bat.ReplLSNs()
	bat.Commit(muts)
	committed := 0
	lastLSN := map[int]uint64{}
	for i, m := range muts {
		if m.Err != want[i] {
			t.Errorf("entry %d (%q del=%v): err %v, one-by-one gave %v", i, m.Key, m.Delete, m.Err, want[i])
		}
		if m.Err == nil {
			committed++
			if m.LSN <= before[m.Part] {
				t.Errorf("entry %d: LSN %d not above the partition's prior %d", i, m.LSN, before[m.Part])
			}
		}
	}
	for part, b := range before {
		lastLSN[part] = b
	}
	for _, x := range *shipped {
		part, lsn := int(x>>32), x&(1<<32-1)
		if lsn <= lastLSN[part] {
			t.Errorf("hook out of LSN order on partition %d: %d after %d", part, lsn, lastLSN[part])
		}
		lastLSN[part] = lsn
	}
	if len(*shipped) != committed {
		t.Errorf("hook fired %d times for %d committed entries", len(*shipped), committed)
	}
	// No LSN burnt by the failed entries: each partition advanced by exactly
	// the records it committed.
	adv := 0
	for part, b := range before {
		adv += int(bat.ReplLSN(part) - b)
	}
	if adv != committed {
		t.Errorf("partitions advanced %d LSNs for %d committed entries", adv, committed)
	}
	if a, b := seq.Stats(), bat.Stats(); a.LiveKeys != b.LiveKeys || a.DeadRecords != b.DeadRecords {
		t.Errorf("accounting diverged: one-by-one live=%d dead=%d, batch live=%d dead=%d", a.LiveKeys, a.DeadRecords, b.LiveKeys, b.DeadRecords)
	}
	n := 0
	seq.Range(func(k, v []byte) bool {
		n++
		if got, err := bat.Get(k); err != nil || string(got) != string(v) {
			t.Errorf("batch store Get(%s) = %q, %v; want %q", k, got, err, v)
		}
		return true
	})
	if bat.Len() != n {
		t.Errorf("batch store holds %d keys, one-by-one %d", bat.Len(), n)
	}
	if bat.Has([]byte("a")) || !bat.Has([]byte("b")) || !bat.Has([]byte("old0")) || bat.Has([]byte("old1")) {
		t.Error("same-key order within the batch not honoured")
	}
}

// TestCommitAllocs pins the commit path's allocation counts — deterministic
// where wall-clock benchmarks on a shared host are not. Put and Delete cost
// 0 allocs/op (the chain walk compares keys up to 64 bytes from the
// stack), with and without a commit hook, and a one-entry Commit on a reused
// slice — the server committer's call — must cost what Put costs, as must a
// Commit of eight arbitrary keys of one partition (one lock, no fan-out
// goroutines) and an Update step of two routed records (its Tx and scratch
// belong to the partition). A key or value that is not a multiple of 8
// bytes costs nothing more: its padded last word is streamed from the stack.
func TestCommitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 200
	for _, hooked := range []bool{false, true} {
		s, err := New(Options{ArenaSize: 64 << 20, MaxSegments: 1, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		if hooked {
			s.SetCommitHook(func(int, uint64, uint8, []byte, []byte) {})
		}
		key, val := make([]byte, 16), make([]byte, 104)
		seq := uint64(0)
		fresh := func() []byte {
			seq++
			binary.BigEndian.PutUint64(key, seq)
			return key
		}
		check := func(name string, want float64, f func()) {
			t.Helper()
			if got := testing.AllocsPerRun(runs, f); got > want {
				t.Errorf("hook=%v %s: %v allocs/op, want <= %v", hooked, name, got, want)
			}
		}
		check("Put", 0, func() {
			if err := s.Put(fresh(), val); err != nil {
				t.Fatal(err)
			}
		})
		del := uint64(0)
		check("Delete", 0, func() {
			del++
			binary.BigEndian.PutUint64(key, del)
			if err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
		})
		muts := make([]Mutation, 1)
		check("Commit of one", 0, func() {
			muts[0] = Mutation{Key: fresh(), Val: val}
			if s.Commit(muts); muts[0].Err != nil {
				t.Fatal(muts[0].Err)
			}
		})
		muts = make([]Mutation, 8)
		keys := make([][16]byte, len(muts))
		check("Commit of eight in one partition", 0, func() {
			for i := range muts {
				for copy(keys[i][:], fresh()); s.PartitionOf(keys[i][:]) != 0; {
					copy(keys[i][:], fresh())
				}
				muts[i] = Mutation{Key: keys[i][:], Val: val}
			}
			s.Commit(muts)
			for i := range muts {
				if muts[i].Err != nil {
					t.Fatal(muts[i].Err)
				}
			}
		})
		route := []byte("route")
		rk := [2][]byte{AppendRoute(nil, route), AppendRoute(nil, route)}
		check("Update step of two routed records", 0, func() {
			err := s.Update(route, func(tx *Tx) error {
				for i := range rk {
					rk[i] = append(rk[i][:len(route)+3], fresh()...)
					tx.Put(rk[i], val)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		// Last, so their inserts do not move the rows above across tree splits.
		check("Put of odd-length key and value", 0, func() {
			if err := s.Put(fresh()[:13], val[:101]); err != nil {
				t.Fatal(err)
			}
		})
		one := muts[:1]
		check("Commit of one, odd-length key and value", 0, func() {
			one[0] = Mutation{Key: fresh()[:11], Val: val[:1]}
			if s.Commit(one); one[0].Err != nil {
				t.Fatal(one[0].Err)
			}
		})
	}
}

// TestStreamPadded: streaming a key or value in place leaves the image and
// the word count exactly as streaming a zero-padded copy of it did, for every
// length up to three lines and every word position in a line, with garbage
// already on the media under the padding.
func TestStreamPadded(t *testing.T) {
	got, want := pmem.New(pmem.Config{Size: 1 << 20}), pmem.New(pmem.Config{Size: 1 << 20})
	src := make([]byte, 3*pmem.LineSize)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	for w := uint64(0); w < pmem.LineSize/8; w++ {
		off := pmem.DataStart + 4*pmem.LineSize + w*8
		for n := 0; n <= len(src); n++ {
			for _, a := range []*pmem.Arena{got, want} {
				for o := off; o < off+4*pmem.LineSize; o += 8 {
					a.Write8Stream(o, ^uint64(0))
				}
			}
			g0, w0 := got.Stats().WordsWritten, want.Stats().WordsWritten
			streamPadded(got, off, src[:n])
			padded := make([]byte, (n+7)&^7)
			copy(padded, src[:n])
			want.WriteStream(off, padded)
			if g, w := got.Stats().WordsWritten-g0, want.Stats().WordsWritten-w0; g != w {
				t.Fatalf("offset %d, %d bytes: %d words written, want %d", off, n, g, w)
			}
			for o := off; o < off+4*pmem.LineSize; o += 8 {
				if g, w := got.Read8(o), want.Read8(o); g != w {
					t.Fatalf("offset %d, %d bytes: word at %d is %#x, want %#x", off, n, o, g, w)
				}
			}
		}
	}
}

// TestCommitPersistCount pins the batched commit's persist count, which is
// exact where wall-clock numbers on a shared host are not: a Commit of n
// fresh distinct keys that route to one partition and fit its current chunk
// issues exactly one record-span persist — one fence for all n records —
// plus the tree's own persists for the n inserts, on default geometry.
func TestCommitPersistCount(t *testing.T) {
	const n = 16
	mk := func() *Store {
		s, err := New(Options{ArenaSize: 64 << 20, MaxSegments: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk()
	p := &s.parts[0]
	muts := make([]Mutation, n)
	span := uint64(0)
	for i := range muts {
		muts[i] = Mutation{Key: []byte(fmt.Sprintf("fresh-%02d", i)), Val: make([]byte, 100+i)}
		span += recSize(len(muts[i].Key), len(muts[i].Val))
	}
	first := p.chunk + p.used
	if p.used+span > p.chunkSz {
		t.Fatalf("%d records (%d bytes) do not fit the current chunk", n, span)
	}
	var spans, otherLog int
	p.arena.SetHooks(&pmem.Hooks{AfterPersist: func(off, size uint64) {
		switch {
		case off == first && size == span:
			spans++
		case off < p.chunk+p.chunkSz && off+size > p.chunk:
			otherLog++
		}
	}})
	before := p.arena.Stats()
	s.Commit(muts)
	got := p.arena.Stats()
	for i := range muts {
		if muts[i].Err != nil {
			t.Fatalf("entry %d: %v", i, muts[i].Err)
		}
	}
	if spans != 1 || otherLog != 0 {
		t.Errorf("record persists: %d of the whole %d-byte span, %d others inside the chunk; want 1 and 0", spans, span, otherLog)
	}

	// The tree's own cost: the same n inserts, in commit order, on a twin.
	twin := &mk().parts[0]
	tree := twin.arena.Stats()
	for i := range muts {
		if err := twin.tree.Upsert(muts[i].hash, first); err != nil {
			t.Fatal(err)
		}
	}
	want := 1 + twin.arena.Stats().Persists - tree.Persists
	if d := got.Persists - before.Persists; d != want {
		t.Errorf("Commit of %d issued %d persists, want %d (1 record span + the tree's %d)", n, d, want, want-1)
	}
	if d := got.Fences - before.Fences; d != want {
		t.Errorf("Commit of %d issued %d fences, want one per persist (%d)", n, d, want)
	}
}
