// DRAM hot-key cache: an opt-in, sharded, bounded table fronting Get of flat
// keys. A hit skips the tree walk and record read; a miss fills the cache, so
// the zipf-hot keys of a skewed workload converge to DRAM lookups. Routed keys
// (RouteByte) never enter it.
//
// The cache owns its bytes. Each shard holds a fixed number of slots, each
// with a buffer for a key and one for its value, behind an open-addressed index
// keyed by the key's Hash — the one AppendGet computes for the partition
// route too; a slot stores its key, and a lookup compares it. A fill copies
// the value into a spare slot, or on a full shard into the slot of the entry
// it evicts; an invalidated entry's slot becomes a spare. A hit copies the
// value out into the caller's buffer under the shard lock, so no reader ever
// holds bytes a later fill overwrites. Slot buffers are made by the first
// fills that use them and reused after, so a warm cache allocates nothing.
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
	// 4096), split evenly across the shards. A fill into a full shard
	// evicts the entry under the shard's hand, which sweeps its slots in turn.
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

// cacheShard is one locked segment: a bounded set of slots behind an index,
// plus the epoch that serializes fills against invalidations.
type cacheShard struct {
	// epoch is bumped (under mu) by every invalidation in this shard;
	// fills read it lock-free before the store read and revalidate it
	// under mu before installing.
	epoch atomic.Uint64
	mu    sync.Mutex
	// index is an open-addressed table, probed linearly from a key hash's
	// home (cache.home): i+1 names slots[i], 0 is empty. It has at least
	// twice as many positions as there are slots, and a removal shifts its
	// probe run back (unlink), so there are no tombstones to rebuild.
	index []uint32
	// slots[:n] are resident; slots[n:] hold the buffers of entries gone,
	// which the next fills reuse. hand is the next eviction victim.
	slots []cacheSlot
	n     int
	hand  int
}

// cacheSlot is one entry: the key's hash, its key and its value, in buffers
// the slot owns and refills for every entry it holds. Two buffers, not one:
// a value of a whole size class (a 1 KiB block) stays in that class.
type cacheSlot struct {
	hash     uint64
	key, val []byte
}

// cache is the sharded hot-key cache. All methods are safe for concurrent
// use. It owns its bytes: a fill copies the value in, a hit copies it out.
type cache struct {
	shards []cacheShard
	mask   uint64
	// shift takes a hash's index home from the bits above those that picked
	// its shard, so a shard's keys spread over its whole index.
	shift uint

	hits       atomic.Uint64
	misses     atomic.Uint64
	fills      atomic.Uint64
	fillAborts atomic.Uint64
	invals     atomic.Uint64
	evicts     atomic.Uint64
}

// newCache builds a cache; cfg zero values take the documented defaults.
// It reserves the shards' slot headers and indexes; the slot buffers are made
// by the fills that first use them.
func newCache(cfg CacheConfig) *cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	shards, shift := 1, uint(0)
	for shards < cfg.Shards {
		shards <<= 1
		shift++
	}
	c := &cache{shards: make([]cacheShard, shards), mask: uint64(shards - 1), shift: shift}
	per := max(cfg.MaxEntries/shards, 1)
	positions := 2
	for positions < 2*per {
		positions <<= 1
	}
	for i := range c.shards {
		c.shards[i].index = make([]uint32, positions)
		c.shards[i].slots = make([]cacheSlot, per)
	}
	return c
}

// cacheable reports whether key may enter the cache: flat keys only.
func cacheable(key []byte) bool { return len(key) > 0 && key[0] != RouteByte }

// shard returns the shard of hash h.
func (c *cache) shard(h uint64) *cacheShard { return &c.shards[h&c.mask] }

// home is the index position where the probe for hash h in sh starts.
func (c *cache) home(sh *cacheShard, h uint64) int { return int(h>>c.shift) & (len(sh.index) - 1) }

// find returns the index position holding key (hash h) and true, or the
// empty position its probe ends at and false. Caller holds sh.mu.
func (c *cache) find(sh *cacheShard, h uint64, key []byte) (pos int, ok bool) {
	mask := len(sh.index) - 1
	for pos = c.home(sh, h); sh.index[pos] != 0; pos = (pos + 1) & mask {
		if e := &sh.slots[sh.index[pos]-1]; e.hash == h && string(e.key) == string(key) {
			return pos, true
		}
	}
	return pos, false
}

// position returns the index position naming slot i. Caller holds sh.mu.
func (c *cache) position(sh *cacheShard, i int) int {
	mask := len(sh.index) - 1
	pos := c.home(sh, sh.slots[i].hash)
	for int(sh.index[pos]) != i+1 {
		pos = (pos + 1) & mask
	}
	return pos
}

// unlink empties index position pos and moves back every later entry of its
// probe run whose home does not lie between the hole and the entry, so each
// probe still reaches its entry without passing an empty position. Caller
// holds sh.mu.
func (c *cache) unlink(sh *cacheShard, pos int) {
	mask := len(sh.index) - 1
	for j := (pos + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		if home := c.home(sh, sh.slots[sh.index[j]-1].hash); (j-home)&mask >= (j-pos)&mask {
			sh.index[pos] = sh.index[j]
			pos = j
		}
	}
	sh.index[pos] = 0
}

// get appends key's cached value (hash h, shard sh) to dst under the shard
// lock, reporting whether it was resident.
func (c *cache) get(sh *cacheShard, dst []byte, h uint64, key []byte) ([]byte, bool) {
	sh.mu.Lock()
	pos, ok := c.find(sh, h, key)
	if ok {
		dst = append(dst, sh.slots[sh.index[pos]-1].val...)
	}
	sh.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return dst, ok
}

// commitFill copies val in for key (hash h, shard sh) unless an invalidation
// bumped the shard epoch since the fill read it (before its store read) —
// val may then predate a published commit, and is dropped. A new key takes a
// spare slot, or on a full shard evicts the entry under the hand and reuses
// its slot; either way the slot's buffer is refilled in place.
func (c *cache) commitFill(sh *cacheShard, h uint64, key, val []byte, epoch uint64) {
	sh.mu.Lock()
	if sh.epoch.Load() != epoch {
		sh.mu.Unlock()
		c.fillAborts.Add(1)
		return
	}
	pos, ok := c.find(sh, h, key)
	i := sh.n
	switch {
	case ok:
		i = int(sh.index[pos]) - 1
	case sh.n < len(sh.slots):
		sh.n++
	default:
		i, sh.hand = sh.hand, (sh.hand+1)%len(sh.slots)
		c.unlink(sh, c.position(sh, i))
		pos, _ = c.find(sh, h, key) // the unlink may have moved the hole
		c.evicts.Add(1)
	}
	sh.index[pos] = uint32(i + 1)
	e := &sh.slots[i]
	e.hash, e.key, e.val = h, append(e.key[:0], key...), append(e.val[:0], val...)
	sh.mu.Unlock()
	c.fills.Add(1)
}

// invalidate drops key (hash h) and bumps its shard epoch, aborting every
// in-flight fill in the shard; the bump is unconditional because a fill of
// key may be in flight even when key is not resident. The last resident slot
// takes the dropped one's place, and the dropped buffer goes to the spares.
func (c *cache) invalidate(h uint64, key []byte) {
	sh := c.shard(h)
	sh.mu.Lock()
	sh.epoch.Add(1)
	if pos, ok := c.find(sh, h, key); ok {
		i := int(sh.index[pos]) - 1
		c.unlink(sh, pos)
		sh.n--
		if last := sh.n; i != last {
			sh.index[c.position(sh, last)] = uint32(i + 1)
			sh.slots[i], sh.slots[last] = sh.slots[last], sh.slots[i]
		}
	}
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
		s.Entries += uint64(sh.n)
		sh.mu.Unlock()
	}
	return s
}

// SetCache installs a fresh, empty hot-key cache sized by cfg in front of Get,
// or with cfg.Enable false removes any. It is safe under live readers and
// writers: a commit reads the installed cache after its tree publish, so it
// invalidates in any cache a fill of its keys could have read the old value
// for.
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
