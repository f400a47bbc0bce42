package kv

import (
	"fmt"
	"testing"
)

func replTestOpts() Options {
	return Options{ArenaSize: 8 << 20, ChunkSize: 512, Partitions: 2}
}

// LSNs are per-partition, start at 1, and increase by exactly one per
// committed mutation on that partition.
func TestReplLSNMonotonic(t *testing.T) {
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := make([]uint64, s.Partitions())
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("k%03d", i))
		part, lsn, err := s.PutEx(key, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != last[part]+1 {
			t.Fatalf("put %d: partition %d jumped %d -> %d", i, part, last[part], lsn)
		}
		last[part] = lsn
		if got := s.ReplLSN(part); got != lsn {
			t.Fatalf("ReplLSN(%d) = %d, want %d", part, got, lsn)
		}
	}
	for part, want := range last {
		if got := s.ReplLSNs()[part]; got != want {
			t.Fatalf("ReplLSNs()[%d] = %d, want %d", part, got, want)
		}
	}
}

// The LSN watermark is recovered from the records themselves: reopening a
// crash image restores each partition's watermark to the highest reachable
// LSN, so a restarted replica resubscribes from the right place and a
// restarted primary never reuses an LSN.
func TestReplLSNRecovered(t *testing.T) {
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k001")); err != nil {
		t.Fatal(err)
	}
	want := s.ReplLSNs()
	imgs := make([][]uint64, len(s.Arenas()))
	for i, a := range s.Arenas() {
		imgs[i] = a.CrashImage(nil, 0)
	}
	s2, err := Open(imgs, replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for part, w := range want {
		if got := s2.ReplLSN(part); got != w {
			t.Fatalf("partition %d: recovered watermark %d, want %d", part, got, w)
		}
	}
	// New writes continue above the recovered watermark.
	part, lsn, err := s2.PutEx([]byte("post-recovery"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != want[part]+1 {
		t.Fatalf("post-recovery LSN %d on partition %d, want %d", lsn, part, want[part]+1)
	}
}

// ReplApply is idempotent by LSN: re-shipping records at or below the
// watermark (reconnect replay) changes nothing, and the watermark advances
// through gaps (a primary can burn an LSN on a failed append).
func TestReplApplyIdempotent(t *testing.T) {
	r, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	part := r.PartitionOf(key)
	apply := func(lsn uint64, kind uint8, val string) {
		t.Helper()
		if err := r.ReplApply([]ReplRecord{{Part: part, LSN: lsn, Kind: kind, Key: key, Val: []byte(val)}}); err != nil {
			t.Fatalf("apply lsn %d: %v", lsn, err)
		}
	}
	apply(1, ReplPut, "v1")
	apply(2, ReplPut, "v2")
	// Replays at or below the watermark are skipped, not re-applied.
	apply(1, ReplPut, "stale1")
	apply(2, ReplPut, "stale2")
	if v, err := r.Get(key); err != nil || string(v) != "v2" {
		t.Fatalf("after replay: %q, %v", v, err)
	}
	// A gap is accepted and the watermark jumps it.
	apply(7, ReplPut, "v7")
	if got := r.ReplLSN(part); got != 7 {
		t.Fatalf("watermark %d, want 7", got)
	}
	apply(8, ReplDelete, "")
	if _, err := r.Get(key); err != ErrNotFound {
		t.Fatalf("after shipped delete: %v", err)
	}
	// Bad inputs are rejected.
	if err := r.ReplApply([]ReplRecord{{Part: part, LSN: 9, Kind: 99, Key: key}}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if err := r.ReplApply([]ReplRecord{{Part: len(want(r)), LSN: 9, Kind: ReplPut, Key: key}}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	wrong := (part + 1) % r.Partitions()
	if err := r.ReplApply([]ReplRecord{{Part: wrong, LSN: 9, Kind: ReplPut, Key: key, Val: []byte("v")}}); err == nil {
		t.Fatal("mis-routed record accepted")
	}
}

func want(s *Store) []uint64 { return s.ReplLSNs() }

// ReplBacklog streams the reachable records above a watermark in ascending
// LSN order — the retransmit path a resubscribing replica heals from.
func TestReplBacklogOrdered(t *testing.T) {
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k003")); err != nil {
		t.Fatal(err)
	}
	for part := 0; part < s.Partitions(); part++ {
		from := uint64(2)
		var lsns []uint64
		err := s.ReplBacklog(part, from, func(lsn uint64, kind uint8, key, val []byte) bool {
			lsns = append(lsns, lsn)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range lsns {
			if l <= from {
				t.Fatalf("partition %d: backlog shipped lsn %d <= from %d", part, l, from)
			}
			if i > 0 && l <= lsns[i-1] {
				t.Fatalf("partition %d: backlog out of order: %v", part, lsns)
			}
		}
		if top := s.ReplLSN(part); len(lsns) == 0 || lsns[len(lsns)-1] != top {
			t.Fatalf("partition %d: backlog does not reach the watermark %d: %v", part, top, lsns)
		}
	}
}

// A backlog larger than one pass's buffer budget streams in bounded LSN
// windows: the full stream still arrives, complete and ascending, without
// the store ever materializing the whole partition for one subscriber.
func TestReplBacklogWindowed(t *testing.T) {
	oldRecs, oldBytes := replBacklogMaxRecs, replBacklogMaxBytes
	replBacklogMaxRecs, replBacklogMaxBytes = 7, 1<<20
	defer func() { replBacklogMaxRecs, replBacklogMaxBytes = oldRecs, oldBytes }()
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for part := 0; part < s.Partitions(); part++ {
		var lsns []uint64
		err := s.ReplBacklog(part, 0, func(lsn uint64, _ uint8, _, _ []byte) bool {
			lsns = append(lsns, lsn)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(lsns) != int(s.ReplLSN(part)) {
			t.Fatalf("partition %d: %d records streamed, watermark %d", part, len(lsns), s.ReplLSN(part))
		}
		for i, l := range lsns {
			if l != uint64(i)+1 {
				t.Fatalf("partition %d: stream gap or reorder at %d: %v", part, i, lsns[:i+1])
			}
		}
	}
	// The byte budget alone also forces windows (and a record bigger than
	// the whole budget still makes progress).
	replBacklogMaxRecs, replBacklogMaxBytes = 1<<30, 16
	for part := 0; part < s.Partitions(); part++ {
		count := 0
		if err := s.ReplBacklog(part, 0, func(uint64, uint8, []byte, []byte) bool {
			count++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if count != int(s.ReplLSN(part)) {
			t.Fatalf("partition %d: byte-budgeted stream delivered %d of %d", part, count, s.ReplLSN(part))
		}
	}
}

// ReplBacklog never delivers a record committed after the replay started:
// the stream is bounded by a barrier snapshot of the partition LSN taken
// under the commit mutex, so a subscriber's cursor cannot advance past a
// record the lock-free tree scan raced with (that record's copy is in the
// live ship queue, above the barrier). Mutating from inside fn is the
// deterministic way to commit concurrently with the walk.
func TestReplBacklogBarrier(t *testing.T) {
	// Small windows force several scan passes, so the mid-walk commits below
	// are visible to later passes — only the barrier keeps them out.
	oldRecs := replBacklogMaxRecs
	replBacklogMaxRecs = 3
	defer func() { replBacklogMaxRecs = oldRecs }()
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.SetCommitHook(func(int, uint64, uint8, []byte, []byte) {})
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for part := 0; part < s.Partitions(); part++ {
		barrier := s.ReplLSN(part)
		i := 0
		err := s.ReplBacklog(part, 0, func(lsn uint64, _ uint8, _, _ []byte) bool {
			if lsn > barrier {
				t.Fatalf("partition %d: replay delivered lsn %d above barrier %d", part, lsn, barrier)
			}
			// Commit new records mid-walk; they must stay out of this stream.
			if err := s.Put([]byte(fmt.Sprintf("mid-%d-%d", part, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
			i++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Replaying a full backlog into a fresh store converges it to the source's
// contents, tombstones included.
func TestReplBacklogConverges(t *testing.T) {
	src, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := src.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := src.Delete([]byte(fmt.Sprintf("k%03d", i*3))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := src.Put([]byte(fmt.Sprintf("k%03d", i*4)), []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	dst, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for part := 0; part < src.Partitions(); part++ {
		err := src.ReplBacklog(part, 0, func(lsn uint64, kind uint8, key, val []byte) bool {
			if err := dst.ReplApply([]ReplRecord{{Part: part, LSN: lsn, Kind: kind, Key: key, Val: val}}); err != nil {
				t.Fatalf("apply: %v", err)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	srcM := map[string]string{}
	src.Range(func(k, v []byte) bool { srcM[string(k)] = string(v); return true })
	n := 0
	dst.Range(func(k, v []byte) bool {
		n++
		if srcM[string(k)] != string(v) {
			t.Fatalf("diverged at %q: %q vs %q", k, v, srcM[string(k)])
		}
		return true
	})
	if n != len(srcM) {
		t.Fatalf("replica has %d keys, source %d", n, len(srcM))
	}
}

// With a commit hook installed the log is a replication history: compaction
// must keep the newest tombstones (a replica that resubscribes from an old
// watermark needs to learn about the delete), and the watermark must not
// regress across a compact + reopen.
func TestReplCompactKeepsTombstones(t *testing.T) {
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	s.SetCommitHook(func(part int, lsn uint64, kind uint8, key, val []byte) {})
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The deletes are the newest records on their keys; compaction with a
	// hook installed must preserve them.
	for i := 15; i < 20; i++ {
		if err := s.Delete([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := s.ReplLSNs()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for part, w := range before {
		var maxLSN uint64
		err := s.ReplBacklog(part, 0, func(lsn uint64, _ uint8, _, _ []byte) bool {
			if lsn > maxLSN {
				maxLSN = lsn
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if maxLSN != w {
			t.Fatalf("partition %d: compaction dropped the newest record: backlog tops at %d, watermark %d", part, maxLSN, w)
		}
	}
	imgs := make([][]uint64, len(s.Arenas()))
	for i, a := range s.Arenas() {
		imgs[i] = a.CrashImage(nil, 0)
	}
	s2, err := Open(imgs, replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for part, w := range before {
		if got := s2.ReplLSN(part); got != w {
			t.Fatalf("partition %d: watermark regressed across compact+reopen: %d, want %d", part, got, w)
		}
	}
}

// ReplState round-trips, survives reopen, and the packed word updates
// atomically (promotion is one persist).
func TestReplStatePersists(t *testing.T) {
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if e, r := s.ReplState(); e != 0 || r != 0 {
		t.Fatalf("fresh store repl state = (%d, %d)", e, r)
	}
	if err := s.SetReplState(3, 2); err != nil {
		t.Fatal(err)
	}
	if e, r := s.ReplState(); e != 3 || r != 2 {
		t.Fatalf("repl state = (%d, %d), want (3, 2)", e, r)
	}
	if err := s.SetReplState(4, 1); err != nil {
		t.Fatal(err)
	}
	imgs := make([][]uint64, len(s.Arenas()))
	for i, a := range s.Arenas() {
		imgs[i] = a.CrashImage(nil, 0)
	}
	s2, err := Open(imgs, replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if e, r := s2.ReplState(); e != 4 || r != 1 {
		t.Fatalf("reopened repl state = (%d, %d), want (4, 1)", e, r)
	}
	if err := s2.SetReplState(1<<56, 1); err == nil {
		t.Fatal("oversized epoch accepted")
	}
}

// The commit hook fires once per committed mutation, after the commit
// point, in LSN order per partition, with the record's kind and payload.
func TestCommitHookOrdered(t *testing.T) {
	s, err := New(replTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		lsn  uint64
		kind uint8
		key  string
	}
	seen := make([][]ev, s.Partitions())
	s.SetCommitHook(func(part int, lsn uint64, kind uint8, key, val []byte) {
		seen[part] = append(seen[part], ev{lsn, kind, string(key)})
	})
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete([]byte("k002")); err != nil {
		t.Fatal(err)
	}
	total := 0
	for part, evs := range seen {
		total += len(evs)
		for i, e := range evs {
			if uint64(i)+1 != e.lsn {
				t.Fatalf("partition %d: hook fired lsn %d at position %d", part, e.lsn, i)
			}
		}
	}
	if total != 21 {
		t.Fatalf("hook fired %d times, want 21", total)
	}
	last := seen[s.PartitionOf([]byte("k002"))]
	if e := last[len(last)-1]; e.kind != ReplDelete || e.key != "k002" {
		t.Fatalf("last event on k002's partition: %+v", e)
	}
}
