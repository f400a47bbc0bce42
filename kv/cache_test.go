package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rntree/internal/race"
)

// cget, cfill and cepoch make the cache calls AppendGet makes for key.
func cget(c *cache, key []byte) ([]byte, bool) {
	h := Hash(key)
	return c.get(c.shard(h), nil, h, key)
}

func cfill(c *cache, key, val []byte, epoch uint64) {
	h := Hash(key)
	c.commitFill(c.shard(h), h, key, val, epoch)
}

func cepoch(c *cache, key []byte) uint64 { return c.shard(Hash(key)).epoch.Load() }

func TestCacheBasic(t *testing.T) {
	c := newCache(CacheConfig{MaxEntries: 64, Shards: 4})
	key, val := []byte("k1"), []byte("v1")
	if _, ok := cget(c, key); ok {
		t.Fatal("hit on empty cache")
	}
	cfill(c, key, val, cepoch(c, key))
	val[1] = '!' // the cache holds its own copy
	if v, ok := cget(c, key); !ok || string(v) != "v1" {
		t.Fatalf("get = %q,%v after fill", v, ok)
	}
	c.invalidate(Hash(key), key)
	if _, ok := cget(c, key); ok {
		t.Fatal("hit after invalidate")
	}
	// A fill whose epoch predates an invalidation must be dropped: the
	// value it carries may be from before a published commit.
	e := cepoch(c, key)
	c.invalidate(Hash(key), key)
	cfill(c, key, []byte("stale"), e)
	if _, ok := cget(c, key); ok {
		t.Fatal("stale fill was installed past an invalidation")
	}
	st := c.stats()
	if st.FillAborts != 1 || st.Fills != 1 || st.Invalidations != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheBounded(t *testing.T) {
	c := newCache(CacheConfig{MaxEntries: 32, Shards: 4})
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		cfill(c, k, []byte("v"), cepoch(c, k))
	}
	st := c.stats()
	if st.Entries > 32 {
		t.Fatalf("cache holds %d entries, bound is 32", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
}

// TestCacheIndexChurn drives one shard's index through fills, evictions and
// invalidations of keys whose hashes share a few homes, so probe runs are
// long and every removal shifts entries back; after each step every resident
// key must be found with its own value and every other key must miss.
func TestCacheIndexChurn(t *testing.T) {
	c := newCache(CacheConfig{MaxEntries: 8, Shards: 1})
	c.shift = 61 // a 63-bit hash's top two bits pick its home: four homes
	rng := rand.New(rand.NewSource(1))
	want := map[string]string{}
	for step := 0; step < 20000; step++ {
		k := fmt.Sprintf("k%d", rng.Intn(40))
		key := []byte(k)
		if rng.Intn(4) == 0 {
			c.invalidate(Hash(key), key)
			delete(want, k)
		} else {
			v := fmt.Sprintf("%s@%d", k, step)
			cfill(c, key, []byte(v), cepoch(c, key))
			want[k] = v
		}
		sh := &c.shards[0]
		for k, v := range want {
			got, ok := cget(c, []byte(k))
			switch {
			case ok && string(got) != v:
				t.Fatalf("step %d: %s = %q, want %q", step, k, got, v)
			case !ok:
				delete(want, k) // evicted
			}
		}
		if len(want) != sh.n {
			t.Fatalf("step %d: %d keys resident, %d slots in use", step, len(want), sh.n)
		}
	}
}

// newCachedStore is a two-partition store with a cache installed.
func newCachedStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCache(CacheConfig{Enable: true, MaxEntries: 64})
	return s
}

// fill stores key → val and reads it twice, so it is resident in the cache.
func fill(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put([]byte(key), []byte(val)); err != nil {
		t.Fatal(err)
	}
	before, _ := s.CacheStats()
	for range 2 {
		if v, err := s.Get([]byte(key)); err != nil || string(v) != val {
			t.Fatalf("Get(%s) = %q, %v", key, v, err)
		}
	}
	if after, _ := s.CacheStats(); after.Hits != before.Hits+1 {
		t.Fatalf("%s not resident after a fill: %+v", key, after)
	}
}

// wantGet fails unless key reads back as want ("" for absent).
func wantGet(t *testing.T, s *Store, key, want string) {
	t.Helper()
	v, err := s.Get([]byte(key))
	switch {
	case want == "" && err != ErrNotFound:
		t.Fatalf("Get(%s) = %q, %v; want ErrNotFound", key, v, err)
	case want != "" && (err != nil || string(v) != want):
		t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, want)
	}
}

// TestCacheCommitRoutesInvalidate: whichever route commits a write of a
// cached flat key, the next Get returns what it wrote — every route goes
// through commitLocked, which invalidates before it returns — and a fill
// whose store read a commit overtook is dropped.
func TestCacheCommitRoutesInvalidate(t *testing.T) {
	t.Run("Put", func(t *testing.T) {
		s := newCachedStore(t)
		fill(t, s, "k", "old")
		if err := s.Put([]byte("k"), []byte("new")); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "k", "new")
	})
	t.Run("PutDuringFill", func(t *testing.T) {
		// AppendGet's miss path with a Put between its store read and its
		// install: the fill carries the old value and must be dropped.
		s := newCachedStore(t)
		key := []byte("k")
		if err := s.Put(key, []byte("old")); err != nil {
			t.Fatal(err)
		}
		c, h, pi := s.cache.Load(), Hash(key), s.PartitionOf(key)
		sh := c.shard(h)
		epoch := sh.epoch.Load()
		old, err := s.appendGet(nil, key, h, pi)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, []byte("new")); err != nil {
			t.Fatal(err)
		}
		c.commitFill(sh, h, key, old, epoch)
		wantGet(t, s, "k", "new")
	})
	t.Run("Delete", func(t *testing.T) {
		s := newCachedStore(t)
		fill(t, s, "k", "old")
		if err := s.Delete([]byte("k")); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "k", "")
	})
	t.Run("CrossPartitionCommit", func(t *testing.T) {
		s := newCachedStore(t)
		a, b := "a", ""
		for i := 0; b == ""; i++ {
			if k := fmt.Sprintf("b%d", i); s.PartitionOf([]byte(k)) != s.PartitionOf([]byte(a)) {
				b = k
			}
		}
		fill(t, s, a, "old")
		fill(t, s, b, "old")
		muts := []Mutation{{Key: []byte(a), Val: []byte("new")}, {Key: []byte(b), Delete: true}}
		s.Commit(muts)
		for _, m := range muts {
			if m.Err != nil {
				t.Fatal(m.Err)
			}
		}
		wantGet(t, s, a, "new")
		wantGet(t, s, b, "")
	})
	t.Run("UpdateStep", func(t *testing.T) {
		s := newCachedStore(t)
		fill(t, s, "k", "old")
		err := s.Update([]byte("k"), func(tx *Tx) error {
			tx.Put([]byte("k"), []byte("new"))
			if err := tx.Commit(); err != nil {
				return err
			}
			wantGet(t, s, "k", "new") // still inside the step
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("ReplApply", func(t *testing.T) {
		s := newCachedStore(t)
		fill(t, s, "k", "old")
		part := s.PartitionOf([]byte("k"))
		lsn := s.parts[part].lsn.Load()
		if err := s.ReplApply([]ReplRecord{{Part: part, LSN: lsn + 1, Kind: ReplPut, Key: []byte("k"), Val: []byte("new")}}); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "k", "new")
		if _, err := s.Get([]byte("k")); err != nil { // resident again
			t.Fatal(err)
		}
		if err := s.ReplApply([]ReplRecord{{Part: part, LSN: lsn + 2, Kind: ReplDelete, Key: []byte("k")}}); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "k", "")
	})
}

// TestCacheRoutedKeysNeverFill: only flat keys enter the cache; a routed
// key's reads neither fill nor count.
func TestCacheRoutedKeysNeverFill(t *testing.T) {
	s := newCachedStore(t)
	k := routed("name", "H")
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if v, err := s.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	}
	if st, _ := s.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("routed key reached the cache: %+v", st)
	}
}

// TestCacheGetAllocs: once warm, AppendGet into a reused buffer allocates
// nothing on any path — a hit, a miss that fills a spare slot, a miss that
// evicts (over many times a shard's capacity of distinct keys, so index churn
// would show), a NotFound — and neither does Has.
func TestCacheGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newCachedStore(t) // 64 entries over 16 shards: 4 a shard
	keys := make([][]byte, 16*64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if err := s.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	c := s.cache.Load()
	key, h := keys[0], Hash(keys[0])
	var buf []byte
	get := func(key []byte) {
		var err error
		if buf, err = s.AppendGet(buf[:0], key); err != nil && err != ErrNotFound {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		what string
		f    func()
	}{
		{"hit", func() { get(key) }},
		{"miss and fill", func() { c.invalidate(h, key); get(key) }},
		{"miss and evict", func() {
			for _, k := range keys {
				get(k)
			}
		}},
		{"NotFound", func() { get([]byte("absent")) }},
		{"Has", func() { s.Has(key) }},
	} {
		if got := testing.AllocsPerRun(50, row.f); got != 0 {
			t.Errorf("%s: %v allocs, want 0", row.what, got)
		}
	}
	if st := c.stats(); st.Hits == 0 || st.Fills == 0 || st.Evictions < 50*uint64(len(keys))/2 {
		t.Errorf("cache saw %d hits, %d fills and %d evictions: the cases did not run as named", st.Hits, st.Fills, st.Evictions)
	}
	if v, err := s.Get(keys[7]); err != nil || !bytes.Equal(v, bytes.Repeat([]byte{7}, 128)) {
		t.Fatalf("Get after the churn = %v, %v", v, err)
	}
}

// TestCacheSlotReuseNoTornValues: readers Get through a cache so small that
// nearly every fill evicts, while writers overwrite the keys with values that
// describe themselves — key, version, a length that varies with the version,
// and a checksum. Every value read must be whole, belong to its own key, and
// be no older than the last write acked before the read began: a hit copies
// its value out under the shard lock, so a fill reusing the slot can neither
// tear it nor hand a reader another key's bytes.
func TestCacheSlotReuseNoTornValues(t *testing.T) {
	s, err := New(Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.SetCache(CacheConfig{Enable: true, MaxEntries: 8, Shards: 2})
	const (
		nKeys     = 32
		nWriters  = 2 // writer w owns the keys k with k%nWriters == w
		nReaders  = 3
		perWriter = 1500
		perReader = 2000 // at least; readers go on until the writers finish
	)
	keys := make([][]byte, nKeys)
	var acked [nKeys]atomic.Uint64 // the newest version acked per key
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("key-%02d", k))
		if err := s.Put(keys[k], stamped(keys[k], 0)); err != nil {
			t.Fatal(err)
		}
	}
	var wg, readers sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, nWriters+nReaders)
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w + nWriters*(i%(nKeys/nWriters))
				ver := acked[k].Load() + 1
				if err := s.Put(keys[k], stamped(keys[k], ver)); err != nil {
					errs <- err
					return
				}
				acked[k].Store(ver)
			}
		}(w)
	}
	for r := 0; r < nReaders; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			var buf []byte
			for i := 0; i < perReader || !done.Load(); i++ {
				k := rng.Intn(nKeys)
				floor := acked[k].Load() // before the read
				var err error
				if buf, err = s.AppendGet(buf[:0], keys[k]); err != nil {
					errs <- fmt.Errorf("Get(%s): %w", keys[k], err)
					return
				}
				ver, err := unstamp(keys[k], buf)
				if err == nil && ver < floor {
					err = fmt.Errorf("version %d read after %d was acked", ver, floor)
				}
				if err != nil {
					errs <- fmt.Errorf("Get(%s) = %q: %w", keys[k], buf, err)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st, _ := s.CacheStats(); st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("cache saw %d hits and %d evictions: slots were not reused under readers", st.Hits, st.Evictions)
	}
}

// stamped is key's value at version ver: the key, the version, ver%29 filler
// bytes and a checksum of all of it.
func stamped(key []byte, ver uint64) []byte {
	v := binary.LittleEndian.AppendUint64(append([]byte(nil), key...), ver)
	v = append(v, bytes.Repeat([]byte{byte(ver)}, int(ver%29))...)
	return binary.LittleEndian.AppendUint64(v, Hash(v))
}

// unstamp checks that v is a whole stamped value of key and returns its
// version.
func unstamp(key, v []byte) (uint64, error) {
	if len(v) < len(key)+16 || !bytes.Equal(v[:len(key)], key) {
		return 0, fmt.Errorf("not a value of this key")
	}
	body := v[:len(v)-8]
	ver := binary.LittleEndian.Uint64(body[len(key):])
	if binary.LittleEndian.Uint64(v[len(body):]) != Hash(body) || len(body) != len(key)+8+int(ver%29) {
		return 0, fmt.Errorf("torn value")
	}
	return ver, nil
}
