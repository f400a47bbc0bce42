// DRAM hot-key cache: an opt-in, sharded, bounded map fronting Get of flat
// keys. A hit skips the partition route, tree walk and record read; a miss
// fills the cache, so the zipf-hot keys of a skewed workload converge to DRAM
// lookups. Routed keys (RouteByte) never enter it.
//
// Coherence is one rule with one site. commitLocked — the store's one commit
// routine, which every write route goes through — invalidates every flat key
// it has just published, after the tree publish and before it returns: an
// invalidation bumps the key's shard epoch and deletes the key. A fill reads
// the shard epoch before its store read and installs only if the epoch is
// unchanged, checked under the shard lock, so a commit that lands between the
// read and the install drops the stale value instead of caching it. No caller
// of a write regains control — to ack it, clear a deadline or apply the next
// shipped record — while a superseded value of that write is still cached.
//
// The leaf version word cannot stamp entries: it changes on splits, not on
// the update-in-place that supersedes a value. Compaction relocates records
// without changing them, so it invalidates nothing.
//
//pmem:volatile the cache is a DRAM-only read accelerator; it is discarded wholesale on restart and rebuilt demand-side from store reads
package kv

import (
	"sync"
	"sync/atomic"
)

// CacheConfig tunes the hot-key cache (SetCache).
type CacheConfig struct {
	// Enable turns the cache on.
	Enable bool
	// MaxEntries bounds the total cached keys across all shards (default
	// 4096). When a shard is full, an arbitrary resident entry is evicted.
	MaxEntries int
	// Shards is the number of independently locked segments, rounded up to
	// a power of two (default 16). More shards means less lock contention
	// and finer-grained fill invalidation (an epoch bump only aborts
	// in-flight fills of its own shard).
	Shards int
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Fills         uint64
	FillAborts    uint64
	Invalidations uint64
	Evictions     uint64
	// AdmitRejects is always zero (the cache admits every fill); it stays
	// only while benchmark/ reads it (ROADMAP item 1).
	AdmitRejects uint64
	Entries      uint64
}

// cacheShard is one locked segment: a bounded map plus the epoch that
// serializes fills against invalidations.
type cacheShard struct {
	// epoch is bumped (under mu) by every invalidation in this shard;
	// fills read it lock-free before the store read and revalidate it
	// under mu before installing.
	epoch atomic.Uint64
	mu    sync.Mutex
	m     map[string][]byte
	max   int
}

// cache is the sharded hot-key cache. All methods are safe for concurrent
// use. Values it hands out are shared and read-only.
type cache struct {
	shards []cacheShard
	mask   uint64

	hits       atomic.Uint64
	misses     atomic.Uint64
	fills      atomic.Uint64
	fillAborts atomic.Uint64
	invals     atomic.Uint64
	evicts     atomic.Uint64
}

// newCache builds a cache; cfg zero values take the documented defaults.
func newCache(cfg CacheConfig) *cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	c := &cache{shards: make([]cacheShard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		c.shards[i].max = max(cfg.MaxEntries/shards, 1)
		c.shards[i].m = make(map[string][]byte, c.shards[i].max)
	}
	return c
}

// cacheable reports whether key may enter the cache: flat keys only.
func cacheable(key []byte) bool { return len(key) > 0 && key[0] != RouteByte }

func (c *cache) shard(key []byte) *cacheShard { return &c.shards[Hash(key)&c.mask] }

// get returns the cached value for key, if resident.
func (c *cache) get(key []byte) ([]byte, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	v, ok := sh.m[string(key)]
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// fillEpoch returns the stamp a fill of key must present to commitFill. It
// must be read before the store read whose result is being cached.
func (c *cache) fillEpoch(key []byte) uint64 { return c.shard(key).epoch.Load() }

// commitFill installs val for key unless an invalidation bumped the shard
// epoch since fillEpoch — val may then predate a published commit, and is
// dropped. val is retained by reference and never mutated.
func (c *cache) commitFill(key, val []byte, epoch uint64) {
	sh := c.shard(key)
	sh.mu.Lock()
	if sh.epoch.Load() != epoch {
		sh.mu.Unlock()
		c.fillAborts.Add(1)
		return
	}
	if _, resident := sh.m[string(key)]; !resident && len(sh.m) >= sh.max {
		for k := range sh.m { // evict an arbitrary resident entry
			delete(sh.m, k)
			c.evicts.Add(1)
			break
		}
	}
	sh.m[string(key)] = val
	sh.mu.Unlock()
	c.fills.Add(1)
}

// invalidate drops key and bumps its shard epoch, aborting every in-flight
// fill in the shard; the bump is unconditional because a fill of key may be
// in flight even when key is not resident.
func (c *cache) invalidate(key []byte) {
	sh := c.shard(key)
	sh.mu.Lock()
	sh.epoch.Add(1)
	delete(sh.m, string(key))
	sh.mu.Unlock()
	c.invals.Add(1)
}

// stats snapshots the counters. Fills (each preceded by its miss) and
// fill-aborts are loaded before misses, so derived invariants hold in any
// interleaving.
func (c *cache) stats() CacheStats {
	s := CacheStats{
		Fills:         c.fills.Load(),
		FillAborts:    c.fillAborts.Load(),
		Evictions:     c.evicts.Load(),
		Invalidations: c.invals.Load(),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Entries += uint64(len(sh.m))
		sh.mu.Unlock()
	}
	return s
}

// SetCache installs a fresh, empty hot-key cache sized by cfg in front of Get,
// or with cfg.Enable false removes any. It is safe under live readers and
// writers: a commit reads the installed cache after its tree publish, so it
// invalidates in any cache a fill of its keys could have read the old value
// for.
//
// With a cache installed, the value Get returns for a flat key may be shared
// with the cache: callers must not modify it.
func (s *Store) SetCache(cfg CacheConfig) {
	if !cfg.Enable {
		s.cache.Store(nil)
		return
	}
	s.cache.Store(newCache(cfg))
}

// CacheStats snapshots the hot-key cache counters; ok is false when no cache
// is installed.
func (s *Store) CacheStats() (st CacheStats, ok bool) {
	if c := s.cache.Load(); c != nil {
		return c.stats(), true
	}
	return CacheStats{}, false
}
