package server

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rntree/client"
	"rntree/kv"
)

func TestCacheBasic(t *testing.T) {
	c := NewCache(CacheConfig{MaxEntries: 64, Shards: 4})
	key, val := []byte("k1"), []byte("v1")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	e := c.FillEpoch(key)
	c.CommitFill(key, val, e)
	if v, ok := c.Get(key); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q,%v after fill", v, ok)
	}
	c.Invalidate(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after invalidate")
	}
	// A fill whose epoch predates an invalidation must be dropped: the
	// value it carries may be from before a committed mutation.
	e = c.FillEpoch(key)
	c.Invalidate(key)
	c.CommitFill(key, []byte("stale"), e)
	if _, ok := c.Get(key); ok {
		t.Fatal("stale fill was installed past an invalidation")
	}
	st := c.Stats()
	if st.FillAborts != 1 || st.Fills != 1 || st.Invalidations != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// Satellite: the two-touch admission guard. A key is installed only on its
// second miss inside one shard-epoch window, so a one-pass scan cannot
// evict the resident hot set; an invalidation in the shard resets the
// window.
func TestCacheTwoTouchAdmission(t *testing.T) {
	c := NewCache(CacheConfig{MaxEntries: 64, Shards: 1, TwoTouch: true})
	key, val := []byte("hot"), []byte("v")

	// First touch: recorded, not admitted.
	c.CommitFill(key, val, c.FillEpoch(key))
	if _, ok := c.Get(key); ok {
		t.Fatal("admitted on first touch")
	}
	// Second touch in the same window: admitted.
	c.CommitFill(key, val, c.FillEpoch(key))
	if v, ok := c.Get(key); !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v after second touch", v, ok)
	}
	if st := c.Stats(); st.AdmitRejects != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// An invalidation between the touches voids the first one.
	cold := []byte("cold")
	c.CommitFill(cold, val, c.FillEpoch(cold))
	c.Invalidate([]byte("other")) // same (only) shard: epoch bump
	c.CommitFill(cold, val, c.FillEpoch(cold))
	if _, ok := c.Get(cold); ok {
		t.Fatal("stale first touch survived an epoch bump")
	}
	c.CommitFill(cold, val, c.FillEpoch(cold))
	if _, ok := c.Get(cold); !ok {
		t.Fatal("second touch in the new window not admitted")
	}

	// A scan of touched-once keys admits nothing and cannot thrash the
	// resident entries.
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("scan%04d", i))
		c.CommitFill(k, val, c.FillEpoch(k))
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("scan evicted a resident hot key")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("scan caused %d evictions", st.Evictions)
	}
}

func TestCacheBounded(t *testing.T) {
	c := NewCache(CacheConfig{MaxEntries: 32, Shards: 4})
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%04d", i))
		c.CommitFill(k, []byte("v"), c.FillEpoch(k))
	}
	if n := c.Len(); n > 32 {
		t.Fatalf("cache holds %d entries, bound is 32", n)
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
}

// TestCacheCoherence is the linearizability-style concurrent test: per-key
// serialized writers PUT monotonically stamped values while readers GET
// through the cache; a GET must never return a stamp older than the last
// ack the reader observed before issuing it (a stale cache hit surviving a
// committed, acknowledged PUT), nor a stamp never issued. Every PUT is
// invalidated by its partition's committer (committer.commit).
func TestCacheCoherence(t *testing.T) {
	cfg := Config{
		// Small cache with few shards: evictions and shared-shard
		// epoch traffic happen constantly.
		Cache: CacheConfig{Enable: true, MaxEntries: 64, Shards: 2},
	}
	_, _, addr := startServer(t, cfg, kv.Options{})

	const (
		nKeys     = 16
		nWriters  = 4 // each owns nKeys/nWriters keys
		nReaders  = 4
		perWriter = 400
		perReader = 800
	)
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("hot%02d", i))
	}
	var lastAcked [nKeys]atomic.Uint64  // highest stamp acked per key
	var lastIssued [nKeys]atomic.Uint64 // highest stamp PUT per key
	var stamp atomic.Uint64

	var wg sync.WaitGroup
	errs := make(chan error, nWriters+nReaders)
	clients := make([]*client.Client, nWriters+nReaders)
	for i := range clients {
		clients[i] = dial(t, addr, client.Options{})
	}
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := clients[w]
			for i := 0; i < perWriter; i++ {
				k := w*(nKeys/nWriters) + i%(nKeys/nWriters)
				s := stamp.Add(1)
				lastIssued[k].Store(s) // per-key writes are serialized here
				if err := c.Put(keys[k], []byte(strconv.FormatUint(s, 10))); err != nil {
					errs <- fmt.Errorf("put: %w", err)
					return
				}
				lastAcked[k].Store(s)
			}
		}(w)
	}
	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int, seed int64) {
			defer wg.Done()
			c := clients[nWriters+r]
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perReader; i++ {
				k := rng.Intn(nKeys)
				floor := lastAcked[k].Load() // before the GET
				v, err := c.Get(keys[k])
				if err == client.ErrNotFound {
					if floor != 0 {
						errs <- fmt.Errorf("key %d vanished after stamp %d was acked", k, floor)
						return
					}
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				got, err := strconv.ParseUint(string(v), 10, 64)
				if err != nil {
					errs <- fmt.Errorf("undecodable value %q", v)
					return
				}
				if got < floor {
					errs <- fmt.Errorf("key %d: GET returned stamp %d after stamp %d was acked (stale cache hit)", k, got, floor)
					return
				}
				if ceil := lastIssued[k].Load(); got > ceil {
					errs <- fmt.Errorf("key %d: GET returned stamp %d, never issued (<=%d)", k, got, ceil)
					return
				}
			}
		}(r, int64(r+1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCacheServesHits checks the cache actually accelerates: repeat GETs of
// one key count as hits, a PUT invalidates, and the STATS verb carries the
// cache counters.
func TestCacheServesHits(t *testing.T) {
	_, _, addr := startServer(t, Config{Cache: CacheConfig{Enable: true}}, kv.Options{})
	c := dial(t, addr, client.Options{})
	if err := c.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v, err := c.Get([]byte("k")); err != nil || string(v) != "v1" {
			t.Fatalf("Get = %q,%v", v, err)
		}
	}
	if err := c.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("Get after overwrite = %q,%v", v, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["cache_hits"] < 9 {
		t.Fatalf("cache_hits = %d, want >= 9", st["cache_hits"])
	}
	if st["cache_invalidations"] < 2 {
		t.Fatalf("cache_invalidations = %d, want >= 2", st["cache_invalidations"])
	}
	if st["cache_hits"]+st["cache_misses"] > st["requests"] {
		t.Fatalf("hits+misses %d exceeds requests %d", st["cache_hits"]+st["cache_misses"], st["requests"])
	}
}

// TestStatsConsistentUnderLoad hammers a deliberately tiny global-inflight
// limit so overload rejections race the STATS reader, and asserts the
// snapshot invariant: overloads never exceed requests (and batched_puts
// never exceed requests), no matter how the loads interleave with a burst.
func TestStatsConsistentUnderLoad(t *testing.T) {
	srv, _, addr := startServer(t, Config{
		MaxGlobalInflight: 4,
		MaxInflight:       64,
		Cache:             CacheConfig{Enable: true},
	}, kv.Options{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// 4 clients x 8 concurrent callers each: 32 requests in flight against
	// a global limit of 4, so rejections happen continuously.
	for w := 0; w < 4; w++ {
		c := dial(t, addr, client.Options{MaxInflight: 64})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(c *client.Client, w, g int) {
				defer wg.Done()
				key := []byte{byte(w), byte(g)}
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Overload rejections come back as errors; keep going.
					_ = c.Put(key, key)
					_, _ = c.Get(key)
				}
			}(c, w, g)
		}
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	checks := 0
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if st.Overloads > st.Requests {
			t.Fatalf("snapshot reports overloads %d > requests %d", st.Overloads, st.Requests)
		}
		if st.HasCache && st.Cache.Hits+st.Cache.Misses > st.Requests {
			t.Fatalf("snapshot reports cache lookups %d > requests %d", st.Cache.Hits+st.Cache.Misses, st.Requests)
		}
		checks++
	}
	close(stop)
	wg.Wait()
	if checks == 0 {
		t.Fatal("no snapshots taken")
	}
	if srv.Stats().Overloads == 0 {
		t.Log("warning: no overloads triggered; invariant not stressed")
	}
}
