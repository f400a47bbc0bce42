// Package forest partitions RNTree into a hash-routed forest of
// independent trees. Every partition owns its own pmem.Arena (and therefore
// its own persist stream) and tree, whose private htm.Region (fallback lock,
// abort counters), volatile inner index and recovery root are its own — so
// the serialization points that cap a single tree's scalability multiply
// with the partition count instead of being shared by every thread.
//
// Keys are routed by a finalizing 64-bit mix of the key modulo the
// partition count, which keeps each partition a uniform sample of the key
// space regardless of insertion pattern. Range scans merge the partitions'
// per-tree ordered iterators through a k-way heap, preserving the global
// key order the single tree provides.
//
// Each partition's root line binds its arena to the forest (partition count
// and this partition's index in one word), so recovery can verify that a set
// of crash images really is one coherent forest, in the right order, before
// recovering every partition independently.
package forest

import (
	"fmt"
	"math/bits"
	"math/rand"

	"rntree/internal/core"
	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// rootForestOff is the root-line word (see internal/core's root layout)
// binding the arena to its forest: count<<32 | index, the partition count
// and this partition's index. Zero is a standalone tree.
const rootForestOff = 48

// MaxPartitions bounds the fan-out; enough to saturate any thread count the
// benchmarks use while keeping the merge heap small.
const MaxPartitions = 256

// Options configure a Forest.
type Options struct {
	// Partitions is the number of trees in the forest; must be a power of
	// two in [1, MaxPartitions]. Default 1.
	Partitions int
	// ArenaSize is the initial simulated NVM capacity of EACH partition
	// arena in bytes (default 64 MiB). Partitions grow past
	// it by appending segments, up to MaxSegments.
	ArenaSize uint64
	// GrowSize is the size of each appended segment (default: ArenaSize).
	GrowSize uint64
	// MaxSegments caps a partition at ArenaSize +
	// (MaxSegments-1)*GrowSize bytes (default 8). 1 disables growth. Each
	// partition's simulated device is reserved in DRAM at that full
	// capacity by New, BulkLoad and every Open: the cache image and as much
	// again for dirty lines' pre-images, so at the defaults about 2 × 8 ×
	// ArenaSize bytes of Go heap per partition, whatever it holds.
	MaxSegments int
	// Latency is the persistent-instruction cost model applied to every
	// partition arena.
	Latency pmem.LatencyModel
	// Tree holds the per-partition tree options; every partition's tree
	// builds a private HTM region from Tree.HTM.
	Tree core.Options
}

func (o *Options) normalize() error {
	if o.Partitions == 0 {
		o.Partitions = 1
	}
	if o.Partitions < 1 || o.Partitions > MaxPartitions || bits.OnesCount(uint(o.Partitions)) != 1 {
		return fmt.Errorf("forest: partitions %d not a power of two in [1,%d]", o.Partitions, MaxPartitions)
	}
	if o.ArenaSize == 0 {
		o.ArenaSize = 64 << 20
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 8
	}
	return nil
}

// arenaConfig is the pmem configuration shared by every partition arena.
func (o *Options) arenaConfig() pmem.Config {
	return pmem.Config{
		Size:        o.ArenaSize,
		GrowSize:    o.GrowSize,
		MaxSegments: o.MaxSegments,
		Latency:     o.Latency,
	}
}

// Partition is one tree of the forest together with the resources it owns.
type Partition struct {
	arena *pmem.Arena
	tree  *core.Tree
}

// Arena returns the partition's private persistent arena.
func (p *Partition) Arena() *pmem.Arena { return p.arena }

// Tree returns the partition's RNTree.
func (p *Partition) Tree() *core.Tree { return p.tree }

// Forest is a hash-partitioned set of RNTrees implementing the same Index
// interface as a single tree. All methods are safe for concurrent use.
type Forest struct {
	parts []*Partition
	mask  uint64
}

var _ tree.Index = (*Forest)(nil)

// Mix64 is the splitmix64 finalizer: a cheap invertible scrambler that
// turns dense or structured keys into uniformly distributed partition
// picks. Routing must be a pure function of the key (never of load) so a
// key recovers into the same partition it was written to.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// PartitionFor returns the partition index owning key.
func (f *Forest) PartitionFor(key uint64) int {
	return int(Mix64(key) & f.mask)
}

// Partitions returns the number of partitions.
func (f *Forest) Partitions() int { return len(f.parts) }

// Partition returns partition i (for stats, kv binding, and tests).
func (f *Forest) Partition(i int) *Partition { return f.parts[i] }

// New creates an empty forest: one fresh arena and tree per partition, each
// bound to the forest by its root line.
func New(opts Options) (*Forest, error) {
	return BulkLoad(opts, nil)
}

// BulkLoad builds a forest from records sorted by strictly increasing key,
// routing each record and bulk-loading every partition's (still sorted)
// share with one persistent instruction per leaf. No records is New.
func BulkLoad(opts Options, records []tree.KV) (*Forest, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	mask := uint64(opts.Partitions - 1)
	buckets := make([][]tree.KV, opts.Partitions)
	for _, r := range records {
		i := int(Mix64(r.Key) & mask)
		buckets[i] = append(buckets[i], r)
	}
	f := &Forest{parts: make([]*Partition, opts.Partitions), mask: mask}
	for i := range f.parts {
		a := pmem.New(opts.arenaConfig())
		// The binding word is written first: the root-line persist that
		// commits the tree commits it too.
		a.Write8(rootForestOff, uint64(opts.Partitions)<<32|uint64(i))
		var t *core.Tree
		var err error
		if len(records) == 0 {
			t, err = core.New(a, opts.Tree)
		} else {
			t, err = core.BulkLoad(a, opts.Tree, buckets[i])
		}
		if err != nil {
			return nil, err
		}
		f.parts[i] = &Partition{arena: a, tree: t}
	}
	return f, nil
}

// Open recovers a forest from per-partition crash images (in partition
// order), rebooting each image into a fresh arena first.
func Open(imgs [][]uint64, opts Options) (*Forest, error) {
	arenas := make([]*pmem.Arena, len(imgs))
	for i, img := range imgs {
		a, err := pmem.Recover(img, pmem.Config{Latency: opts.Latency})
		if err != nil {
			return nil, fmt.Errorf("forest: partition %d: %w", i, err)
		}
		arenas[i] = a
	}
	return OpenArenas(arenas, opts)
}

// OpenArenas recovers a forest over already-rebooted arenas, one per
// partition in partition order. Each partition's binding word is verified
// against the set — matching partition count, matching position — and then
// its tree recovers independently: reconstruction after a clean shutdown,
// the split-overlap trim plus chain rebuild after a crash. The kv layer and
// the fault explorer use this entry point so they keep hold of the arenas
// (persist hooks, their own structures in them). Each arena must come
// straight from pmem.Recover, with no Alloc or Free since (see
// pmem.Heap.MarkLive).
func OpenArenas(arenas []*pmem.Arena, opts Options) (*Forest, error) {
	n := len(arenas)
	if n < 1 || n > MaxPartitions || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("forest: %d arenas not a power of two in [1,%d]", n, MaxPartitions)
	}
	f := &Forest{parts: make([]*Partition, n), mask: uint64(n - 1)}
	for i, a := range arenas {
		switch w := a.Read8(rootForestOff); {
		case w == 0:
			return nil, fmt.Errorf("forest: partition %d: arena holds a standalone tree", i)
		case w>>32 != uint64(n):
			return nil, fmt.Errorf("forest: partition %d: arena belongs to a forest of %d partitions, opening %d", i, w>>32, n)
		case w&(1<<32-1) != uint64(i):
			return nil, fmt.Errorf("forest: image at position %d belongs to partition %d", i, w&(1<<32-1))
		}
		t, err := core.Open(a, opts.Tree)
		if err != nil {
			return nil, fmt.Errorf("forest: partition %d: %w", i, err)
		}
		f.parts[i] = &Partition{arena: a, tree: t}
	}
	return f, nil
}

// Insert routes to the owning partition; it fails with ErrKeyExists if the
// key is present.
func (f *Forest) Insert(key, value uint64) error {
	return f.parts[f.PartitionFor(key)].tree.Insert(key, value)
}

// Update routes to the owning partition; it fails with ErrKeyNotFound if
// the key is absent.
func (f *Forest) Update(key, value uint64) error {
	return f.parts[f.PartitionFor(key)].tree.Update(key, value)
}

// Upsert writes key unconditionally in its owning partition.
func (f *Forest) Upsert(key, value uint64) error {
	return f.parts[f.PartitionFor(key)].tree.Upsert(key, value)
}

// Find looks the key up in its owning partition.
func (f *Forest) Find(key uint64) (uint64, bool) {
	return f.parts[f.PartitionFor(key)].tree.Find(key)
}

// Remove deletes key from its owning partition.
func (f *Forest) Remove(key uint64) error {
	return f.parts[f.PartitionFor(key)].tree.Remove(key)
}

// Scan visits records with key >= start in globally ascending key order by
// merging the partitions' ordered iterators. It has the same consistency
// semantics as a sequence of per-leaf range queries on one tree: each batch
// is an atomic leaf snapshot, concurrent writers may land between batches.
func (f *Forest) Scan(start uint64, max int, fn func(key, value uint64) bool) int {
	if len(f.parts) == 1 {
		return f.parts[0].tree.Scan(start, max, fn)
	}
	it := f.NewIterator(start)
	count := 0
	for {
		if max > 0 && count >= max {
			return count
		}
		kv, ok := it.Next()
		if !ok {
			return count
		}
		count++
		if !fn(kv.Key, kv.Value) {
			return count
		}
	}
}

// Len counts the records in the forest (a full scan of every partition).
func (f *Forest) Len() int {
	n := 0
	for _, p := range f.parts {
		n += p.tree.Len()
	}
	return n
}

// Close performs a clean shutdown of every partition (persists transient
// bookkeeping and arms each clean flag). Partitions must be quiescent.
func (f *Forest) Close() {
	for _, p := range f.parts {
		p.tree.Close()
	}
}

// CrashImages simulates power loss across the whole forest: one crash image
// per partition, in partition order. rng drives dirty-line eviction
// sampling (nil with evictProb 0 captures exactly the persisted state).
func (f *Forest) CrashImages(rng *rand.Rand, evictProb float64) [][]uint64 {
	imgs := make([][]uint64, len(f.parts))
	for i, p := range f.parts {
		imgs[i] = p.arena.CrashImage(rng, evictProb)
	}
	return imgs
}

// Stats sums the per-partition snapshots; Depth is the maximum over
// partitions (the forest's traversal depth).
func (f *Forest) Stats() core.Stats {
	var s core.Stats
	for _, p := range f.parts {
		ps := p.tree.Stats()
		s.Persists += ps.Persists
		s.LinesFlushed += ps.LinesFlushed
		s.WordsWritten += ps.WordsWritten
		s.ReadRetries += ps.ReadRetries
		s.HTM.Commits += ps.HTM.Commits
		s.HTM.ConflictAborts += ps.HTM.ConflictAborts
		s.HTM.CapacityAborts += ps.HTM.CapacityAborts
		s.HTM.ExplicitAborts += ps.HTM.ExplicitAborts
		s.HTM.PersistAborts += ps.HTM.PersistAborts
		s.HTM.Fallbacks += ps.HTM.Fallbacks
		s.HTM.SpuriousAborts += ps.HTM.SpuriousAborts
		s.Leaves += ps.Leaves
		if ps.Depth > s.Depth {
			s.Depth = ps.Depth
		}
	}
	return s
}

// PartitionStats returns each partition's private snapshot, exposing skew
// in persists, aborts and fallback pressure across the forest.
func (f *Forest) PartitionStats() []core.Stats {
	out := make([]core.Stats, len(f.parts))
	for i, p := range f.parts {
		out[i] = p.tree.Stats()
	}
	return out
}

// ResetStats zeroes every partition's persistence and HTM counters.
func (f *Forest) ResetStats() {
	for _, p := range f.parts {
		p.arena.ResetStats()
		p.tree.ResetHTMStats()
	}
}

// ReadRetries sums wasted read attempts across partitions (the §6.3
// contention metric the bench experiments probe for).
func (f *Forest) ReadRetries() uint64 {
	var n uint64
	for _, p := range f.parts {
		n += p.tree.ReadRetries()
	}
	return n
}

// DualSlot reports whether the dual-slot-array design is enabled (uniform
// across partitions).
func (f *Forest) DualSlot() bool { return f.parts[0].tree.DualSlot() }

// LeafCount sums leaves over partitions.
func (f *Forest) LeafCount() int {
	n := 0
	for _, p := range f.parts {
		n += p.tree.LeafCount()
	}
	return n
}

// Depth is the maximum volatile-index depth over partitions.
func (f *Forest) Depth() int {
	d := 0
	for _, p := range f.parts {
		if pd := p.tree.Depth(); pd > d {
			d = pd
		}
	}
	return d
}

// CheckInvariants validates every partition's tree invariants plus the
// forest-level one: every stored key routes to the partition holding it.
func (f *Forest) CheckInvariants() error {
	for i, p := range f.parts {
		if err := p.tree.CheckInvariants(); err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
		var routeErr error
		p.tree.Scan(0, 0, func(k, _ uint64) bool {
			if want := f.PartitionFor(k); want != i {
				routeErr = fmt.Errorf("partition %d holds key %d, which routes to %d", i, k, want)
				return false
			}
			return true
		})
		if routeErr != nil {
			return routeErr
		}
	}
	return nil
}
