package kv

import (
	"fmt"
	"testing"

	"rntree/internal/race"
)

func TestCacheBasic(t *testing.T) {
	c := newCache(CacheConfig{MaxEntries: 64, Shards: 4})
	key, val := []byte("k1"), []byte("v1")
	if _, ok := c.get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.commitFill(key, val, c.fillEpoch(key))
	if v, ok := c.get(key); !ok || string(v) != "v1" {
		t.Fatalf("get = %q,%v after fill", v, ok)
	}
	c.invalidate(key)
	if _, ok := c.get(key); ok {
		t.Fatal("hit after invalidate")
	}
	// A fill whose epoch predates an invalidation must be dropped: the
	// value it carries may be from before a published commit.
	e := c.fillEpoch(key)
	c.invalidate(key)
	c.commitFill(key, []byte("stale"), e)
	if _, ok := c.get(key); ok {
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
		c.commitFill(k, []byte("v"), c.fillEpoch(k))
	}
	st := c.stats()
	if st.Entries > 32 {
		t.Fatalf("cache holds %d entries, bound is 32", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
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
// through commitLocked, which invalidates before it returns.
func TestCacheCommitRoutesInvalidate(t *testing.T) {
	t.Run("Put", func(t *testing.T) {
		s := newCachedStore(t)
		fill(t, s, "k", "old")
		if err := s.Put([]byte("k"), []byte("new")); err != nil {
			t.Fatal(err)
		}
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
		if err := s.ReplApply(part, lsn+1, ReplPut, []byte("k"), []byte("new")); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "k", "new")
		if _, err := s.Get([]byte("k")); err != nil { // resident again
			t.Fatal(err)
		}
		if err := s.ReplApply(part, lsn+2, ReplDelete, []byte("k"), nil); err != nil {
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

// TestCacheGetAllocs: a hit allocates nothing, and a miss that fills
// allocates what the store read does plus the cache's copy of the key.
func TestCacheGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newCachedStore(t)
	key := []byte("hot-key")
	if err := s.Put(key, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	storeGet := testing.AllocsPerRun(200, func() { s.get(key) })
	c := s.cache.Load()
	if _, err := s.Get(key); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() { s.Get(key) }); got != 0 {
		t.Errorf("hit: %v allocs, want 0", got)
	}
	missFill := testing.AllocsPerRun(200, func() {
		c.invalidate(key)
		s.Get(key)
	})
	if missFill != storeGet+1 {
		t.Errorf("miss and fill: %v allocs, want %v", missFill, storeGet+1)
	}
	if st := c.stats(); st.Hits == 0 || st.Fills == 0 {
		t.Errorf("cache saw %d hits and %d fills: the cases did not run as named", st.Hits, st.Fills)
	}
}
