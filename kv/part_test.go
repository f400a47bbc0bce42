package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rntree/internal/htm"
)

// collide makes every key hash into one of n buckets, forcing deep hash
// chains deterministically.
func collide(n uint64) func([]byte) uint64 {
	return func(key []byte) uint64 { return Hash(key) % n }
}

// TestLiveKeysAfterReinsert is the regression test for the accounting bug
// where Put over a tombstoned key did not re-increment the live counter,
// so LiveKeys undercounted after every delete→reinsert.
func TestLiveKeysAfterReinsert(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LiveKeys; got != 1 {
		t.Fatalf("LiveKeys after insert = %d, want 1", got)
	}
	if err := s.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LiveKeys; got != 0 {
		t.Fatalf("LiveKeys after delete = %d, want 0", got)
	}
	if err := s.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LiveKeys; got != 1 {
		t.Fatalf("LiveKeys after reinsert = %d, want 1", got)
	}
	// Several delete→reinsert cycles must not drift.
	for i := 0; i < 10; i++ {
		if err := s.Delete([]byte("k")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Stats().LiveKeys, s.Len(); got != want || got != 1 {
		t.Fatalf("LiveKeys after churn = %d, Len = %d, want 1", got, want)
	}
}

// TestAccountingWithCollidingKeys is the regression test for head-based
// accounting: when a hash chain holds several distinct keys, the record a
// mutation shadows is the mutated key's newest record — not the chain head,
// which may belong to a colliding key. The seed code counted the head,
// undercounting LiveKeys and overcounting DeadRecords on every collision.
func TestAccountingWithCollidingKeys(t *testing.T) {
	s := newStore(t)
	s.hash = collide(3) // every key lands in one of three chains
	records := 0        // every successful Put/Delete appends exactly one

	const n = 12
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		records++
	}
	st := s.Stats()
	if st.LiveKeys != n || st.DeadRecords != 0 {
		t.Fatalf("after colliding inserts: live=%d dead=%d, want live=%d dead=0", st.LiveKeys, st.DeadRecords, n)
	}

	// Overwrite half: each kills exactly the overwritten key's record.
	for i := 0; i < n; i += 2 {
		if err := s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
		records++
	}
	st = s.Stats()
	if st.LiveKeys != n || st.DeadRecords != n/2 {
		t.Fatalf("after overwrites: live=%d dead=%d, want live=%d dead=%d", st.LiveKeys, st.DeadRecords, n, n/2)
	}

	// Delete keys whose newest record is buried mid-chain: exactly the
	// buried Put plus the new tombstone die.
	for i := 1; i < n; i += 2 {
		if err := s.Delete([]byte(fmt.Sprintf("key-%d", i))); err != nil {
			t.Fatal(err)
		}
		records++
	}
	st = s.Stats()
	if st.LiveKeys != n/2 {
		t.Fatalf("after deletes: live=%d, want %d", st.LiveKeys, n/2)
	}
	if st.LiveKeys != s.Len() {
		t.Fatalf("LiveKeys=%d disagrees with Len=%d", st.LiveKeys, s.Len())
	}
	// Invariant: every appended record is either live or dead.
	if st.LiveKeys+st.DeadRecords != records {
		t.Fatalf("live(%d)+dead(%d) != records appended(%d)", st.LiveKeys, st.DeadRecords, records)
	}

	// Reinsert over tombstones in colliding chains.
	for i := 1; i < n; i += 2 {
		if err := s.Put([]byte(fmt.Sprintf("key-%d", i)), []byte("back")); err != nil {
			t.Fatal(err)
		}
		records++
	}
	st = s.Stats()
	if st.LiveKeys != n || st.LiveKeys != s.Len() {
		t.Fatalf("after reinserts: live=%d Len=%d, want %d", st.LiveKeys, s.Len(), n)
	}
	if st.LiveKeys+st.DeadRecords != records {
		t.Fatalf("live(%d)+dead(%d) != records appended(%d)", st.LiveKeys, st.DeadRecords, records)
	}

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.LiveKeys != n || st.DeadRecords != 0 {
		t.Fatalf("after compact: live=%d dead=%d, want live=%d dead=0", st.LiveKeys, st.DeadRecords, n)
	}
	for i := 0; i < n; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("key-%d", i))); err != nil {
			t.Fatalf("key-%d lost: %v", i, err)
		}
	}
}

// TestOpenUsesPersistedChunkSize is the regression test for the recovery
// bug where Open trusted Options.ChunkSize when walking chunk chains: a
// smaller value computed a too-small allocator bump, and fresh chunks were
// handed out overlapping live log data. v2 persists the geometry, so the
// value passed to Open must not matter.
func TestOpenUsesPersistedChunkSize(t *testing.T) {
	s, err := New(Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("old-%04d", i)
		v := make([]byte, 200+rng.Intn(800))
		rng.Read(v)
		want[k] = v
		if err := s.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	img := s.Snapshot()

	// Open with a chunk size 8x smaller than the store was created with.
	s2, err := Open(img, Options{ChunkSize: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.parts[0].chunkSz; got != 1<<16 {
		t.Fatalf("recovered chunk size = %d, want %d (persisted)", got, 1<<16)
	}
	// Write enough fresh data that a mis-positioned allocator would hand
	// out offsets inside the old chunks and corrupt them.
	for i := 0; i < 2000; i++ {
		v := make([]byte, 500)
		rng.Read(v)
		if err := s2.Put([]byte(fmt.Sprintf("new-%05d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	for k, v := range want {
		got, err := s2.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("old record %q corrupted after open with wrong ChunkSize (err %v)", k, err)
		}
	}

	// A larger-than-created value must be harmless too.
	s3, err := Open(img, Options{ChunkSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, err := s3.Get([]byte(k))
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("old record %q lost after open with larger ChunkSize (err %v)", k, err)
		}
	}
}

// TestStatsRaceWithWriters is the regression test for Stats() reading the
// accounting counters without synchronization: under -race the seed code
// reports a data race between Stats and any writer.
func TestStatsRaceWithWriters(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("first"), []byte("v")); err != nil { // at least one index insert, whoever wins the race below
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := []byte(fmt.Sprintf("k%d", i%64))
			if i%5 == 4 {
				_ = s.Delete(k)
			} else if err := s.Put(k, []byte("v")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var commits, retries uint64
	for i := 0; i < 3000; i++ {
		st := s.Stats()
		if st.LiveKeys < 0 || st.DeadRecords < 0 {
			t.Errorf("negative counters: %+v", st)
			break
		}
		// The HTM and read-retry roll-ups are sums of monotonic counters.
		ht, rr := s.HTMStats(), s.ReadRetries()
		if ht.Commits < commits || rr < retries {
			t.Errorf("roll-up went backwards: commits %d -> %d, retries %d -> %d", commits, ht.Commits, retries, rr)
			break
		}
		commits, retries = ht.Commits, rr
	}
	close(stop)
	wg.Wait()
	// Quiescent, the roll-up is exactly the partitions' sum.
	var want htm.Stats
	for i := 0; i < s.f.Partitions(); i++ {
		ps := s.f.Partition(i).Tree().HTMStats()
		want.Commits += ps.Commits
		want.ConflictAborts += ps.ConflictAborts
		want.Fallbacks += ps.Fallbacks
	}
	if got := s.HTMStats(); got.Commits != want.Commits || got.ConflictAborts != want.ConflictAborts || got.Fallbacks != want.Fallbacks || got.Commits == 0 {
		t.Errorf("HTMStats = %+v, partitions sum to %+v", got, want)
	}
}

// TestConcurrentStress drives concurrent Put/Get/Delete/Stats (plus
// periodic Compact and Range) across every partition; run with -race it is
// the acceptance stress for the partitioned write path.
func TestConcurrentStress(t *testing.T) {
	s, err := New(Options{ArenaSize: 256 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		keys    = 256
	)
	deadline := time.Now().Add(1 * time.Second)
	var wg sync.WaitGroup
	var ops atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				k := []byte(fmt.Sprintf("k%d", rng.Intn(keys)))
				switch rng.Intn(10) {
				case 0:
					_ = s.Delete(k)
				case 1:
					_, _ = s.Get(k)
				case 2:
					_ = s.Has(k)
				default:
					if err := s.Put(k, []byte(fmt.Sprintf("w%d", w))); err != nil {
						t.Error(err)
						return
					}
				}
				ops.Add(1)
			}
		}(w)
	}
	// Dedicated readers: Stats and Range concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			st := s.Stats()
			if st.LiveKeys < 0 || st.LiveKeys > keys {
				t.Errorf("implausible LiveKeys %d", st.LiveKeys)
				return
			}
			s.Range(func(k, v []byte) bool { return len(k) > 0 })
		}
	}()
	// Occasional compaction; per-partition locking means it runs alongside
	// the other partitions' writers rather than stopping the world.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := ops.Load(); n == 0 {
		t.Fatal("stress made no progress")
	}
	// Quiesced: the atomics must agree with a full walk.
	if got, want := s.Stats().LiveKeys, s.Len(); got != want {
		t.Fatalf("post-stress LiveKeys=%d, Len=%d", got, want)
	}
}

// TestParallelWritersAllPartitions checks plain correctness of fully parallel
// writers: every write lands, nothing tears, accounting stays exact.
func TestParallelWritersAllPartitions(t *testing.T) {
	s, err := New(Options{ArenaSize: 256 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 16})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		per     = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-k%04d", w, i))
				if err := s.Put(k, []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.Len(); got != writers*per {
		t.Fatalf("Len = %d, want %d", got, writers*per)
	}
	if got := s.Stats().LiveKeys; got != writers*per {
		t.Fatalf("LiveKeys = %d, want %d", got, writers*per)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < per; i += 37 {
			k := fmt.Sprintf("w%d-k%04d", w, i)
			v, err := s.Get([]byte(k))
			if err != nil || string(v) != fmt.Sprintf("v%d-%d", w, i) {
				t.Fatalf("%s = %q, %v", k, v, err)
			}
		}
	}
	// And the parallel-written store survives a crash.
	s2, err := Open(s.Snapshot(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != writers*per {
		t.Fatalf("recovered Len = %d, want %d", got, writers*per)
	}
}
