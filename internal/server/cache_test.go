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

// TestCacheCoherence is the linearizability-style concurrent test: per-key
// serialized writers PUT monotonically stamped values while readers GET
// through the cache; a GET must never return a stamp older than the last
// ack the reader observed before issuing it (a stale cache hit surviving a
// committed, acknowledged PUT), nor a stamp never issued. Every PUT is
// invalidated by the store's commit before its committer acks it.
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
