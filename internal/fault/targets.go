package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"rntree/internal/clock"
	"rntree/internal/core"
	"rntree/internal/forest"
	"rntree/internal/obj"
	"rntree/internal/pmem"
	"rntree/kv"
)

// u64Model is the ApplyModel of the targets that map op.K to op.V as plain
// integers: the tree, the forest and the heap.
type u64Model struct{}

func (u64Model) ApplyModel(m Model, op Op) {
	k := strconv.FormatUint(op.K, 10)
	switch op.Kind {
	case OpInsert, OpUpdate:
		m[k] = strconv.FormatUint(op.V, 10)
	case OpDelete:
		delete(m, k)
	}
}

// ---------------------------------------------------------------------------
// core.Tree target

// TreeTarget drives a core.Tree with a small leaf capacity so the workload
// reaches the split path (whole-leaf undo log) as well as the two-persist
// insert/update and the delete paths.
type TreeTarget struct {
	u64Model
	DualSlot bool
	arena    *pmem.Arena
	tree     *core.Tree
}

const (
	treeArenaSize = 1 << 20
	treeLeafCap   = 8 // capacity-1 = 7 live entries per leaf: splits early
)

func (t *TreeTarget) Name() string {
	if t.DualSlot {
		return "tree+ds"
	}
	return "tree"
}

func (t *TreeTarget) opts() core.Options {
	return core.Options{DualSlot: t.DualSlot, LeafCapacity: treeLeafCap}
}

func (t *TreeTarget) Reset() ([]*pmem.Arena, Model, error) {
	t.arena = pmem.New(pmem.Config{Size: treeArenaSize})
	tr, err := core.New(t.arena, t.opts())
	if err != nil {
		return nil, nil, err
	}
	t.tree = tr
	return []*pmem.Arena{t.arena}, Model{}, nil
}

func (t *TreeTarget) Apply(op Op) error {
	switch op.Kind {
	case OpInsert:
		return t.tree.Insert(op.K, op.V)
	case OpUpdate:
		return t.tree.Update(op.K, op.V)
	case OpDelete:
		return t.tree.Remove(op.K)
	}
	return fmt.Errorf("tree target: unsupported op %s", op.Kind)
}

func (t *TreeTarget) Recover(imgs [][]uint64) (Model, error) {
	if len(imgs) != 1 {
		return nil, fmt.Errorf("tree target: %d images, want 1", len(imgs))
	}
	a, err := pmem.Recover(imgs[0], pmem.Config{})
	if err != nil {
		return nil, err
	}
	tr, err := core.CrashRecover(a, t.opts())
	if err != nil {
		return nil, err
	}
	if err := tr.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("recovered tree invalid: %v", err)
	}
	got := Model{}
	tr.Scan(0, 0, func(k, v uint64) bool {
		got[strconv.FormatUint(k, 10)] = strconv.FormatUint(v, 10)
		return true
	})
	return got, nil
}

// TreeWorkload exercises every single-threaded mutation path: inserts deep
// enough to split leaves several times (20 live keys at 7 per leaf), then
// updates (log-entry reuse) and deletes (tombstone slots). The forest
// targets run it too: Mix64 spreads its keys across both partitions, so
// splits, updates and deletes land in each partition's arena.
func TreeWorkload() []Op {
	var ops []Op
	for i := uint64(0); i < 20; i++ {
		ops = append(ops, Op{OpInsert, i * 7 % 97, 1000 + i})
	}
	for i := uint64(0); i < 6; i++ {
		ops = append(ops, Op{OpUpdate, i * 7 % 97, 2000 + i})
	}
	for i := uint64(6); i < 12; i++ {
		ops = append(ops, Op{OpDelete, i * 7 % 97, 0})
	}
	return ops
}

// ---------------------------------------------------------------------------
// kv.Store target

// KVTarget drives a kv.Store with tiny chunks so the workload crosses chunk
// boundaries (newChunk's chunk-link persists) and with compaction ops
// mixed in, crashing inside record appends, index updates, and the
// compaction cut. NewKVTarget runs one partition ("kv"); NewKVPartsTarget
// runs two ("kv-parts"), where crash sites land inside one partition's
// work while the other's arena is quiescent, and recovery must rebuild
// both partitions from their own superblocks and reject nothing from a
// legitimate machine-wide crash.
type KVTarget struct {
	kvModel
	name  string
	opts  kv.Options
	store *kv.Store
}

// NewKVTarget returns the one-partition kv target.
func NewKVTarget() *KVTarget { return &KVTarget{name: "kv", opts: kvOpts()} }

// NewKVPartsTarget returns the two-partition kv target.
func NewKVPartsTarget() *KVTarget { return &KVTarget{name: "kv-parts", opts: kvPartsOpts()} }

func kvOpts() kv.Options {
	return kv.Options{
		ArenaSize: 4 << 20,
		ChunkSize: 512, // ~7 records per chunk: frequent chunk-link persists
	}
}

func kvPartsOpts() kv.Options {
	return kv.Options{
		ArenaSize:  8 << 20,
		ChunkSize:  512,
		Partitions: 2,
	}
}

func (t *KVTarget) Name() string { return t.name }

func (t *KVTarget) Reset() ([]*pmem.Arena, Model, error) {
	s, err := kv.New(t.opts)
	if err != nil {
		return nil, nil, err
	}
	t.store = s
	return s.Arenas(), Model{}, nil
}

// kvKey/kvValue are the target's key/value encoding; values vary in length
// with the key so records land on different line alignments.
func kvKey(k uint64) string { return fmt.Sprintf("k%04d", k) }

func kvValue(k, v uint64) string {
	return fmt.Sprintf("v%d.%s", v, strings.Repeat("x", int(k%29)))
}

func (t *KVTarget) Apply(op Op) error {
	switch op.Kind {
	case OpInsert, OpUpdate:
		return t.store.Put([]byte(kvKey(op.K)), []byte(kvValue(op.K, op.V)))
	case OpDelete:
		return t.store.Delete([]byte(kvKey(op.K)))
	case OpCompact:
		return t.store.Compact()
	}
	return fmt.Errorf("%s target: unsupported op %s", t.name, op.Kind)
}

// kvModel is the ApplyModel of the targets over a kv.Store, which map
// kvKey(op.K) to kvValue(op.K, op.V).
type kvModel struct{}

func (kvModel) ApplyModel(m Model, op Op) {
	switch op.Kind {
	case OpInsert, OpUpdate:
		m[kvKey(op.K)] = kvValue(op.K, op.V)
	case OpDelete:
		delete(m, kvKey(op.K))
	case OpCompact, OpOpen, OpPromote:
		// Semantic no-ops: contents unchanged.
	}
}

func rangeModel(s *kv.Store) Model {
	got := Model{}
	s.Range(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	return got
}

func kvRecover(imgs [][]uint64, opts kv.Options) (Model, error) {
	s, err := kv.Open(imgs, opts)
	if err != nil {
		return nil, err
	}
	return rangeModel(s), nil
}

func (t *KVTarget) Recover(imgs [][]uint64) (Model, error) {
	return kvRecover(imgs, t.opts)
}

// KVWorkload covers Put (fresh and overwriting), Delete, and two Compacts —
// the first with dead records and tombstones to reclaim, the second
// exercising the retired-chunk free path.
func KVWorkload() []Op {
	var ops []Op
	for i := uint64(0); i < 14; i++ {
		ops = append(ops, Op{OpInsert, i, 100 + i})
	}
	for i := uint64(0); i < 6; i++ {
		ops = append(ops, Op{OpUpdate, i, 200 + i})
	}
	for i := uint64(10); i < 14; i++ {
		ops = append(ops, Op{OpDelete, i, 0})
	}
	ops = append(ops, Op{Kind: OpCompact})
	for i := uint64(20); i < 26; i++ {
		ops = append(ops, Op{OpInsert, i, 300 + i})
	}
	ops = append(ops,
		Op{OpUpdate, 20, 400},
		Op{OpUpdate, 21, 401},
		Op{OpDelete, 22, 0},
		Op{Kind: OpCompact},
	)
	return ops
}

// ---------------------------------------------------------------------------
// kv.Store + DRAM hot-key cache target

// CachedKVTarget drives a kv.Store with its DRAM hot-key cache installed
// (kv.Store.SetCache): every read goes through Get, which hits or fills the
// cache, and every commit invalidates what it publishes. The cache holds no
// persistent state, so the thing to prove here is the recovery contract: a
// crash discards the cache wholesale, and the recovered store — with a fresh,
// empty cache — serves exactly the model state both on the filling pass and
// on the all-hits pass that follows it. A cache that survived recovery by
// accident (or a fill that installs mismatched values) fails the image
// comparison.
type CachedKVTarget struct {
	kvModel
	store *kv.Store
}

func (t *CachedKVTarget) Name() string { return "kv+cache" }

func cachedKVCacheCfg() kv.CacheConfig {
	// Small and 2-sharded: evictions and shared-shard epoch bumps happen
	// within the workload's few dozen keys.
	return kv.CacheConfig{Enable: true, MaxEntries: 16, Shards: 2}
}

func (t *CachedKVTarget) Reset() ([]*pmem.Arena, Model, error) {
	s, err := kv.New(kvOpts())
	if err != nil {
		return nil, nil, err
	}
	s.SetCache(cachedKVCacheCfg())
	t.store = s
	return s.Arenas(), Model{}, nil
}

func (t *CachedKVTarget) Apply(op Op) error {
	key := []byte(kvKey(op.K))
	switch op.Kind {
	case OpInsert, OpUpdate:
		// Warm the cache with the superseded value first, so the commit's
		// invalidation is load-bearing.
		if _, err := t.store.Get(key); err != nil && err != kv.ErrNotFound {
			return err
		}
		if err := t.store.Put(key, []byte(kvValue(op.K, op.V))); err != nil {
			return err
		}
		// Read back through the cache: the fill must install the new value,
		// not resurrect the superseded one.
		v, err := t.store.Get(key)
		if err != nil {
			return err
		}
		if string(v) != kvValue(op.K, op.V) {
			return fmt.Errorf("kv+cache: read-through after put of %s returned %q", key, v)
		}
		return nil
	case OpDelete:
		if err := t.store.Delete(key); err != nil {
			return err
		}
		if _, err := t.store.Get(key); err != kv.ErrNotFound {
			return fmt.Errorf("kv+cache: read-through after delete of %s: %v", key, err)
		}
		return nil
	case OpCompact:
		// Compaction rewrites records without changing contents; the cache
		// needs no invalidation and must keep serving the same values.
		return t.store.Compact()
	}
	return fmt.Errorf("kv+cache target: unsupported op %s", op.Kind)
}

// Recover reopens the store from the crash images behind a FRESH cache —
// recovery discards DRAM — and builds the model by reading every surviving
// key twice: the first read fills, the second must hit and agree
// byte-for-byte with the first. Any disagreement is reported as a divergent
// model entry so the explorer flags it as a violation.
func (t *CachedKVTarget) Recover(imgs [][]uint64) (Model, error) {
	s, err := kv.Open(imgs, kvOpts())
	if err != nil {
		return nil, err
	}
	s.SetCache(cachedKVCacheCfg())
	var keys []string
	s.Range(func(k, _ []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	got := Model{}
	for _, k := range keys {
		first, err := s.Get([]byte(k))
		if err != nil {
			return nil, fmt.Errorf("kv+cache recover: fill pass Get(%s): %v", k, err)
		}
		second, err := s.Get([]byte(k))
		if err != nil {
			return nil, fmt.Errorf("kv+cache recover: hit pass Get(%s): %v", k, err)
		}
		if string(first) != string(second) {
			got[k] = fmt.Sprintf("CACHE-DIVERGED fill=%q hit=%q", first, second)
			continue
		}
		got[k] = string(first)
	}
	return got, nil
}

// ---------------------------------------------------------------------------
// forest target

// ForestTarget drives a two-partition forest.Forest with a small leaf
// capacity: crash sites land inside one partition's mutation while the
// other partition's arena is quiescent, and recovery must reassemble the
// whole forest from the multi-arena image set (superblock checks included).
type ForestTarget struct {
	u64Model
	DualSlot bool
	forest   *forest.Forest
}

func (t *ForestTarget) Name() string {
	if t.DualSlot {
		return "forest+ds"
	}
	return "forest"
}

func (t *ForestTarget) opts() forest.Options {
	return forest.Options{
		Partitions: 2,
		ArenaSize:  treeArenaSize,
		Tree:       core.Options{DualSlot: t.DualSlot, LeafCapacity: treeLeafCap},
	}
}

func (t *ForestTarget) Reset() ([]*pmem.Arena, Model, error) {
	f, err := forest.New(t.opts())
	if err != nil {
		return nil, nil, err
	}
	t.forest = f
	arenas := make([]*pmem.Arena, f.Partitions())
	for i := range arenas {
		arenas[i] = f.Partition(i).Arena()
	}
	return arenas, Model{}, nil
}

func (t *ForestTarget) Apply(op Op) error {
	switch op.Kind {
	case OpInsert:
		return t.forest.Insert(op.K, op.V)
	case OpUpdate:
		return t.forest.Update(op.K, op.V)
	case OpDelete:
		return t.forest.Remove(op.K)
	}
	return fmt.Errorf("forest target: unsupported op %s", op.Kind)
}

func (t *ForestTarget) Recover(imgs [][]uint64) (Model, error) {
	f, err := forest.Open(imgs, t.opts())
	if err != nil {
		return nil, err
	}
	if err := f.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("recovered forest invalid: %v", err)
	}
	got := Model{}
	f.Scan(0, 0, func(k, v uint64) bool {
		got[strconv.FormatUint(k, 10)] = strconv.FormatUint(v, 10)
		return true
	})
	return got, nil
}

// ---------------------------------------------------------------------------
// pmem heap allocator target

// HeapTarget drives the persistent heap allocator directly: each op
// allocates, updates, or frees a pattern-filled block linked into a tiny
// persistent directory rooted in the arena root line. The geometry is
// sized so the workload crosses several segment-append cutovers, and the
// deletes/reinserts push blocks through the persistent size-class free
// lists — so every allocator-metadata persist site (undo-log arm, the
// MetaWrite8 window, commit flips, bump advances, the grow cutover)
// becomes a crash point. pmem.Recover rejects an image whose allocator
// metadata CheckHeap does not accept, so every admissible image must get
// through it.
type HeapTarget struct {
	u64Model
	arena *pmem.Arena
}

const (
	heapSeg0Size = 1 << 16
	heapGrowSize = 1 << 14
	heapMaxSegs  = 8
	// heapDirOff is the root-line word heading the block directory (the
	// root line is free for the target's own use: no tree lives here).
	heapDirOff = 0
	// Block layout: next pointer, key, value, then a key-derived fill
	// pattern to the end of the block (so an overlapping allocation shows
	// up as a pattern mismatch, not silence).
	heapBlkNextOff = 0
	heapBlkKeyOff  = 8
	heapBlkValOff  = 16
	heapBlkPatOff  = 24
)

// heapBlockSize derives a block's size from its key, so Free needs no
// persisted size field and the workload spreads over four size classes.
func heapBlockSize(k uint64) uint64 { return (1 + k%4) * 2048 }

func (t *HeapTarget) Name() string { return "heap" }

func (t *HeapTarget) Reset() ([]*pmem.Arena, Model, error) {
	t.arena = pmem.New(pmem.Config{
		Size:        heapSeg0Size,
		GrowSize:    heapGrowSize,
		MaxSegments: heapMaxSegs,
	})
	return []*pmem.Arena{t.arena}, Model{}, nil
}

// findBlock returns the offset holding the link to key's block (the root
// word or a predecessor's next word) and the block offset itself.
func (t *HeapTarget) findBlock(k uint64) (linkOff, off uint64, ok bool) {
	a := t.arena
	linkOff = heapDirOff
	for off = a.Read8(linkOff); off != pmem.NullOff; off = a.Read8(linkOff) {
		if a.Read8(off+heapBlkKeyOff) == k {
			return linkOff, off, true
		}
		linkOff = off + heapBlkNextOff
	}
	return 0, 0, false
}

func (t *HeapTarget) Apply(op Op) error {
	a := t.arena
	switch op.Kind {
	case OpInsert:
		size := heapBlockSize(op.K)
		off, err := a.Alloc(size)
		if err != nil {
			return err
		}
		a.Write8(off+heapBlkNextOff, a.Read8(heapDirOff))
		a.Write8(off+heapBlkKeyOff, op.K)
		a.Write8(off+heapBlkValOff, op.V)
		for w := uint64(heapBlkPatOff); w < size; w += 8 {
			a.Write8(off+w, op.K^w)
		}
		// The block is fully durable before the directory points at it;
		// the single-word head flip is the commit point.
		a.Persist(off, size)
		a.Write8(heapDirOff, off)
		a.Persist(heapDirOff, 8)
		return nil
	case OpUpdate:
		_, off, ok := t.findBlock(op.K)
		if !ok {
			return fmt.Errorf("heap target: update of absent key %d", op.K)
		}
		a.Write8(off+heapBlkValOff, op.V)
		a.Persist(off+heapBlkValOff, 8)
		return nil
	case OpDelete:
		linkOff, off, ok := t.findBlock(op.K)
		if !ok {
			return fmt.Errorf("heap target: delete of absent key %d", op.K)
		}
		// Unlink first (single-word commit point), then return the block
		// to the allocator's persistent free lists.
		a.Write8(linkOff, a.Read8(off+heapBlkNextOff))
		a.Persist(linkOff, 8)
		a.Free(off, heapBlockSize(op.K))
		return nil
	}
	return fmt.Errorf("heap target: unsupported op %s", op.Kind)
}

func (t *HeapTarget) Recover(imgs [][]uint64) (Model, error) {
	if len(imgs) != 1 {
		return nil, fmt.Errorf("heap target: %d images, want 1", len(imgs))
	}
	// Recover rolls back an interrupted allocator update and fails on
	// metadata CheckHeap rejects.
	a, err := pmem.Recover(imgs[0], pmem.Config{})
	if err != nil {
		return nil, fmt.Errorf("heap target: %v", err)
	}
	got := Model{}
	for off := a.Read8(heapDirOff); off != pmem.NullOff; off = a.Read8(off + heapBlkNextOff) {
		k := a.Read8(off + heapBlkKeyOff)
		size := heapBlockSize(k)
		for w := uint64(heapBlkPatOff); w < size; w += 8 {
			if v := a.Read8(off + w); v != k^w {
				return nil, fmt.Errorf("heap target: block %#x (key %d) pattern torn at +%d: %#x", off, k, w, v)
			}
		}
		got[strconv.FormatUint(k, 10)] = strconv.FormatUint(a.Read8(off+heapBlkValOff), 10)
	}
	return got, nil
}

// HeapWorkload crosses at least two segment-append cutovers on the way in
// (20 blocks averaging 5 KiB against a 64 KiB first segment), then frees
// six blocks across all four size classes and reinserts into exactly those
// classes, so the persistent free-list push/pop paths crash too.
func HeapWorkload() []Op {
	var ops []Op
	for i := uint64(0); i < 20; i++ {
		ops = append(ops, Op{OpInsert, i, 7000 + i})
	}
	for i := uint64(0); i < 4; i++ {
		ops = append(ops, Op{OpUpdate, i, 7100 + i})
	}
	for i := uint64(4); i < 10; i++ {
		ops = append(ops, Op{OpDelete, i, 0})
	}
	for i := uint64(20); i < 26; i++ {
		ops = append(ops, Op{OpInsert, i, 7200 + i})
	}
	ops = append(ops, Op{OpDelete, 20, 0}, Op{OpInsert, 30, 7300})
	return ops
}

// ---------------------------------------------------------------------------
// kv reopen target

// KVReopenTarget pre-loads a two-partition store and reboots its durable
// images on fresh arenas; the workload's first op is OpOpen, so recovery's
// own persist sites — the fresh chunk's link, the heap-record refresh, tree
// recovery — become crash points, per partition. A crash image from any of
// them must reopen to exactly the pre-loaded contents.
type KVReopenTarget struct {
	KVTarget // store is nil until OpOpen
	arenas   []*pmem.Arena
}

// NewKVReopenTarget returns the kv reopen target.
func NewKVReopenTarget() *KVReopenTarget {
	return &KVReopenTarget{KVTarget: KVTarget{name: "kv-reopen", opts: kvPartsOpts()}}
}

func (t *KVReopenTarget) Reset() ([]*pmem.Arena, Model, error) {
	s, err := kv.New(t.opts)
	if err != nil {
		return nil, nil, err
	}
	base := Model{}
	for i := uint64(0); i < 10; i++ {
		k, v := kvKey(i), kvValue(i, 100+i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			return nil, nil, err
		}
		base[k] = v
	}
	if err := s.Delete([]byte(kvKey(9))); err != nil {
		return nil, nil, err
	}
	delete(base, kvKey(9))
	k, v := kvKey(0), kvValue(0, 150)
	if err := s.Put([]byte(k), []byte(v)); err != nil {
		return nil, nil, err
	}
	base[k] = v
	// Reboot the durable images on fresh arenas, as a restart would.
	srcs := s.Arenas()
	t.arenas = make([]*pmem.Arena, len(srcs))
	for i, a := range srcs {
		if t.arenas[i], err = pmem.Recover(a.CrashImage(nil, 0), pmem.Config{}); err != nil {
			return nil, nil, err
		}
	}
	t.store = nil
	return t.arenas, base, nil
}

func (t *KVReopenTarget) Apply(op Op) error {
	if op.Kind == OpOpen {
		s, err := kv.OpenArenas(t.arenas, t.opts)
		t.store = s
		return err
	}
	if t.store == nil {
		return fmt.Errorf("kv-reopen target: %s before OpOpen", op.Kind)
	}
	return t.KVTarget.Apply(op)
}

// KVReopenWorkload opens the pre-loaded images, then keeps using the
// reopened store across both partitions.
func KVReopenWorkload() []Op {
	return []Op{
		{Kind: OpOpen},
		{OpInsert, 30, 500},
		{OpInsert, 31, 501},
		{OpUpdate, 1, 600},
		{OpDelete, 3, 0},
		{Kind: OpCompact},
	}
}

// ---------------------------------------------------------------------------
// typed-object layer target

// ObjTarget drives the typed-object layer (internal/obj) over a kv.Store:
// crash sites land inside and between the records of HSET / HDEL (field
// record and header, the header being the commit point), inside the single
// header write of SADD / SREM, inside EXPIRE's record write, and inside the
// expirer's reap (a run of deletes ending with the expiry record, driven
// synchronously through the injected clock). Recovery re-attaches the layer
// — sweeping the records no header lists — and the oracle checks
// OBJECT-level contents: a crash anywhere inside a composite recovers to
// all-or-nothing, an expired key never resurrects, and every header agrees
// exactly with the element records on media.
type ObjTarget struct {
	store *kv.Store
	o     *obj.Store
	clock *clock.Fake
}

func (t *ObjTarget) Name() string { return "obj" }

func objKVOpts(clk clock.Clock) kv.Options {
	return kv.Options{ArenaSize: 4 << 20, ChunkSize: 1024, Clock: clk}
}

// The op encoding: OpInsert is HSET on hash o<K/4> field f<K%4>; OpUpdate
// is SADD on set t<K/4> member f<K%4>; OpDelete dispatches on V.
const (
	objDelHashField = 0 // HDel one field
	objDelSetMember = 1 // SRem one member
	objReapHash     = 2 // expire the hash, advance the clock past it: the expirer reaps
	objReapSet      = 3 // expire the set, advance the clock past it: the expirer reaps
)

func objHash(k uint64) string { return fmt.Sprintf("o%d", k>>2) }
func objSet(k uint64) string  { return fmt.Sprintf("t%d", k>>2) }
func objElem(k uint64) string { return fmt.Sprintf("f%d", k&3) }
func objVal(v uint64) string  { return fmt.Sprintf("v%d", v) }

func (t *ObjTarget) Reset() ([]*pmem.Arena, Model, error) {
	t.clock = clock.NewFake(time.UnixMilli(1_000))
	s, err := kv.New(objKVOpts(t.clock))
	if err != nil {
		return nil, nil, err
	}
	t.store = s
	o, err := obj.Attach(s, obj.Options{})
	if err != nil {
		return nil, nil, err
	}
	t.o = o
	return s.Arenas(), Model{}, nil
}

func (t *ObjTarget) Apply(op Op) error {
	switch op.Kind {
	case OpInsert:
		return t.o.HSet([]byte(objHash(op.K)), []byte(objElem(op.K)), []byte(objVal(op.V)))
	case OpUpdate:
		return t.o.SAdd([]byte(objSet(op.K)), []byte(objElem(op.K)))
	case OpDelete:
		switch op.V {
		case objDelHashField:
			return t.o.HDel([]byte(objHash(op.K)), []byte(objElem(op.K)))
		case objDelSetMember:
			return t.o.SRem([]byte(objSet(op.K)), []byte(objElem(op.K)))
		case objReapHash, objReapSet:
			name := objHash(op.K)
			if op.V == objReapSet {
				name = objSet(op.K)
			}
			if err := t.o.Expire([]byte(name), 10); err != nil {
				return err
			}
			reaps := t.o.Stats().Reaps
			t.clock.Advance(20 * time.Millisecond)
			if n := t.o.Stats().Reaps - reaps; n != 1 {
				return fmt.Errorf("obj target: reap of %s reaped %d, want 1", name, n)
			}
			return nil
		}
		return fmt.Errorf("obj target: unknown delete selector %d", op.V)
	case OpCompact:
		return t.store.Compact()
	}
	return fmt.Errorf("obj target: unsupported op %s", op.Kind)
}

func (t *ObjTarget) ApplyModel(m Model, op Op) {
	switch op.Kind {
	case OpInsert:
		m["h:"+objHash(op.K)+":"+objElem(op.K)] = objVal(op.V)
	case OpUpdate:
		m["s:"+objSet(op.K)+":"+objElem(op.K)] = "1"
	case OpDelete:
		switch op.V {
		case objDelHashField:
			delete(m, "h:"+objHash(op.K)+":"+objElem(op.K))
		case objDelSetMember:
			delete(m, "s:"+objSet(op.K)+":"+objElem(op.K))
		case objReapHash:
			for k := range m {
				if strings.HasPrefix(k, "h:"+objHash(op.K)+":") {
					delete(m, k)
				}
			}
		case objReapSet:
			for k := range m {
				if strings.HasPrefix(k, "s:"+objSet(op.K)+":") {
					delete(m, k)
				}
			}
		}
	}
}

// Recover reopens the store, re-attaches the object layer (which sweeps the
// unlisted records) and rebuilds the model through the typed read API, so
// expiry masking applies exactly as it would for a client. Structural
// invariants are errors, not model entries: a hash header whose field list
// disagrees with the field records on media, any element record under a set
// (a set is its header) or under a name with no header, and a record of a
// kind nothing writes.
func (t *ObjTarget) Recover(imgs [][]uint64) (Model, error) {
	s, err := kv.Open(imgs, objKVOpts(clock.NewFake(t.clock.Now())))
	if err != nil {
		return nil, err
	}
	o, err := obj.Attach(s, obj.Options{})
	if err != nil {
		return nil, err
	}
	// Raw sweep: which names exist, and how many element records each holds.
	names := map[string]bool{}
	elems := map[string]int{}
	var rerr error
	s.Range(func(k, _ []byte) bool {
		tag, name, ok := obj.ParseInternalKey(k)
		if !ok {
			rerr = fmt.Errorf("obj recover: unparseable key %q in a pure-object store", k)
			return false
		}
		switch tag {
		case 'H':
			names[string(name)] = true
		case 'h':
			names[string(name)] = true
			elems[string(name)]++
		case 'X':
		default:
			rerr = fmt.Errorf("obj recover: %q is a kind of record nothing writes", k)
			return false
		}
		return true
	})
	if rerr != nil {
		return nil, rerr
	}
	got := Model{}
	for name := range names {
		n := []byte(name)
		if o.Expired(n) {
			// Masked (expired but unreaped): contributes nothing, and its
			// leftover records are the reap's business, not a violation.
			continue
		}
		fields, err := o.HKeys(n)
		listed := len(fields)
		if err == obj.ErrWrongType {
			members, merr := o.SMembers(n)
			if merr != nil {
				return nil, fmt.Errorf("obj recover: SMembers(%s): %v", name, merr)
			}
			listed = 0 // a set lists its members in the header and owns no other record
			for _, m := range members {
				got["s:"+name+":"+string(m)] = "1"
			}
		} else if err != nil {
			return nil, fmt.Errorf("obj recover: HKeys(%s): %v", name, err)
		} else {
			for _, f := range fields {
				v, gerr := o.HGet(n, f)
				if gerr != nil {
					return nil, fmt.Errorf("obj recover: header of %s lists %q but HGet: %v", name, f, gerr)
				}
				got["h:"+name+":"+string(f)] = string(v)
			}
		}
		if listed != elems[name] {
			return nil, fmt.Errorf("obj recover: %s owns %d field records by its header, media holds %d",
				name, listed, elems[name])
		}
	}
	return got, nil
}

// ObjWorkload covers every composite shape: fresh-field HSETs (two hashes),
// single-record overwrites, SADDs (two sets), element removals that rewrite
// the header and ones that empty the object (header delete first), then
// expire+reap of one hash and one set — via the expirer's own tick — and a
// rebuild over the reaped corpse, with compactions mixed through.
func ObjWorkload() []Op {
	var ops []Op
	// Hashes o0 (f0..f3) and o1 (f0..f3): field record, then header.
	for i := uint64(0); i < 8; i++ {
		ops = append(ops, Op{OpInsert, i, 100 + i})
	}
	// Overwrites: the single-record path.
	ops = append(ops, Op{OpInsert, 0, 200}, Op{OpInsert, 5, 205})
	// Sets t4 (f0..f3) and t5 (f0, f1).
	for i := uint64(16); i < 22; i++ {
		ops = append(ops, Op{OpUpdate, i, 0})
	}
	// Removals that rewrite the header in place.
	ops = append(ops,
		Op{OpDelete, 1, objDelHashField},  // o0: drop f1
		Op{OpDelete, 17, objDelSetMember}, // t4: drop f1
		Op{Kind: OpCompact},
		// Expire + reap one hash and one set through the expirer.
		Op{OpDelete, 4, objReapHash}, // o1 reaped whole
		Op{OpDelete, 20, objReapSet}, // t5 reaped whole
		// Rebuild over the reaped corpse: must start fresh, not resurrect.
		Op{OpInsert, 4, 300},
		Op{Kind: OpCompact},
		// o1 loses its only field: the object goes, header delete first.
		Op{OpDelete, 4, objDelHashField},
	)
	return ops
}

// Targets returns every layer adapter with its canonical workload, the
// matrix the faultmatrix experiment and `make faultcheck` run.
func Targets() []struct {
	Target Target
	Ops    []Op
} {
	return []struct {
		Target Target
		Ops    []Op
	}{
		{&HeapTarget{}, HeapWorkload()},
		{&TreeTarget{DualSlot: false}, TreeWorkload()},
		{&TreeTarget{DualSlot: true}, TreeWorkload()},
		{&ForestTarget{DualSlot: false}, TreeWorkload()},
		{&ForestTarget{DualSlot: true}, TreeWorkload()},
		{NewKVTarget(), KVWorkload()},
		{&CachedKVTarget{}, KVWorkload()},
		{NewKVPartsTarget(), KVWorkload()},
		{NewKVReopenTarget(), KVReopenWorkload()},
		{&ReplTarget{}, KVWorkload()},
		{&ObjTarget{}, ObjWorkload()},
		{&PrimaryKillTarget{}, KVWorkload()},
		{&ReplicaKillTarget{}, KVWorkload()},
		{&PromoteTarget{}, PromoteWorkload()},
	}
}
