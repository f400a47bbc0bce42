// Package kv is a durable key-value store for byte-string keys and values
// built on RNTree — the downstream use case the paper motivates in §3.3
// (primary-key stores with unique-constraint semantics, à la Redis or a
// PostgreSQL index).
//
// The index is a hash-partitioned forest of RNTrees (internal/forest): a
// key's 63-bit hash picks the partition, and each partition owns a private
// simulated-NVM arena holding both its tree and its slice of the value
// log. Values live in a log-structured region of the partition arena: a
// Put appends an immutable record (header, key, value) to a log chunk,
// persists it, and then updates that partition's RNTree from the key's
// hash to the record's offset — so the record is durable before it becomes
// reachable, and the tree's slot-array flush is the commit point, giving
// Put/Delete the same durable-linearizability story as the tree itself.
// Hash collisions are handled with per-hash record chains that store full
// keys.
//
// A partition owns exactly one value log: the partition superblock's
// newest-chunk word heads the log's chunk chain, with one volatile append
// cursor and one lock, held by every commit from LSN assignment to the
// commit hook — so a partition's log order is its LSN order, and partitions
// (Options.Partitions) are the only unit of write parallelism. Each arena
// holds its own superblock and the forest binds it to its partition, so
// recovery rebuilds every partition independently after the forest has
// verified that a set of crash images really is one store. Reads are
// lock-free on every path.
//
// Space from overwritten and deleted records is reclaimed by Compact,
// which rewrites live records into fresh chunks and frees the old ones once
// no reader can still be walking them — one partition at a time, so
// compaction never stops the whole store.
package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"rntree/internal/clock"
	"rntree/internal/core"
	"rntree/internal/forest"
	"rntree/internal/htm"
	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// Store errors.
var (
	// ErrNotFound is returned by Get and Delete for absent keys.
	ErrNotFound = errors.New("kv: key not found")
	// ErrTooLarge is returned when a record exceeds the chunk size.
	ErrTooLarge = errors.New("kv: record larger than log chunk")
	// ErrEmptyKey is returned for zero-length keys.
	ErrEmptyKey = errors.New("kv: empty key")
	// ErrClosed is returned by mutating operations after Close: the store
	// has taken its clean-shutdown path and accepts no more writes.
	ErrClosed = errors.New("kv: store is closed")
	// ErrFull is returned when a mutation cannot allocate space — the
	// partition heap is exhausted and cannot grow further. It wraps the
	// underlying allocator or index error, is retry-safe (the failed
	// mutation was not applied, and retrying fails identically until space
	// is reclaimed by Delete+Compact), and never corrupts the store.
	ErrFull = errors.New("kv: store is full")
	// ErrCorrupt is returned by Open when an image is not a store this
	// package could have written: a heap, index or superblock it does not
	// recognise, or a superblock or chunk-chain word that is out of bounds,
	// misaligned, cyclic or inconsistent with the heap. It wraps the detail.
	// Open rejects such an image untouched; there is no repair.
	ErrCorrupt = errors.New("kv: corrupt store image")
	// ErrPartitionCount is returned by Open when Options.Partitions names a
	// count other than the one the images hold. Open does not repartition:
	// copying the live pairs into a new store would restart every
	// partition's LSNs and drop the tombstones and the replication
	// epoch/role that a replica needs to keep across a restart.
	ErrPartitionCount = errors.New("kv: partition count does not match the store image")
)

// mapFull tags allocation-exhaustion errors from the layers below with the
// store-level typed ErrFull, leaving other errors untouched.
func mapFull(err error) error {
	if errors.Is(err, pmem.ErrOutOfMemory) || errors.Is(err, tree.ErrFull) {
		return fmt.Errorf("%w: %w", ErrFull, err)
	}
	return err
}

const (
	// rootStoreOff is the word of the arena root line (reserved by the
	// tree for layers above it) holding the store superblock offset.
	rootStoreOff = 40

	// storeMagic identifies the one superblock format, a single line. Any
	// other magic is rejected by Open.
	storeMagic = 0x524e_4b56_0006 // "RNKV" v6

	// Superblock words.
	sbMagicOff   = 0
	sbChunkSzOff = 8  // persisted log chunk size
	sbHeadOff    = 16 // newest chunk of the value log (NullOff: none yet)

	sbSize = pmem.LineSize

	// chunk header (one line); records start at chunkHdrSize
	chunkNextOff = 0
	chunkHdrSize = pmem.LineSize

	// DefaultChunkSize is the log chunk size.
	DefaultChunkSize = 1 << 20

	// record header word: kind | keyLen<<8 | valLen<<32 ; second word: next
	// record in the hash chain (0 = end); third word: the record's
	// per-partition log sequence number, assigned at commit. The LSN rides
	// the record itself so replication progress is recovered from the value
	// log — recount rebuilds each partition's counter from the max reachable
	// LSN, and a record whose tree publish did not survive the crash is
	// invisible, keeping the recovered watermark exactly at the durable
	// prefix.
	recHdrSize = 24
	recLSNOff  = 16
	recPut     = 1
	recDelete  = 2

	// rootReplOff is the root-line word (partition 0's arena) holding the
	// offset of the replication-state line, or null if the store never
	// participated in replication. The line's second word packs epoch<<8 |
	// role, so a promotion commits with a single atomic 8-byte persist.
	rootReplOff    = 56
	replMagic      = 0x524e_5250_0001 // "RNRP" v1
	replStMagicOff = 0
	replStWordOff  = 8
)

// Replication record kinds as shipped by the commit hook and accepted by
// ReplApply (the wire values of the kv-internal record kinds).
const (
	ReplPut    uint8 = recPut
	ReplDelete uint8 = recDelete
)

// Options configure a Store.
type Options struct {
	// ArenaSize is the total initial simulated NVM capacity in bytes
	// (default 512 MiB), split evenly across partitions.
	// Partitions grow past their share on demand (see GrowSize).
	ArenaSize uint64
	// GrowSize is the size of each segment a partition heap appends when
	// its committed space is exhausted (default: the partition's initial
	// arena size).
	GrowSize uint64
	// MaxSegments caps each partition at its initial size plus
	// (MaxSegments-1)*GrowSize bytes (default 8; 1 disables growth, making
	// exhaustion surface as ErrFull). Each partition's simulated device is
	// reserved in DRAM at that full capacity by New and by every Open,
	// whatever the store holds: the cache image, and as much again for the
	// pre-images of dirty lines (resident only as many as are dirty at
	// once). With the default GrowSize that is about 2 × MaxSegments ×
	// ArenaSize bytes of Go heap per store. Untouched pages cost no RSS until
	// the Go runtime recycles them; nine Opens of a 4-partition store of
	// ArenaSize 256 MiB at the default 8 segments reached 7.8 GB RSS.
	MaxSegments int
	// ChunkSize is the value-log chunk size (default 1 MiB). Persisted in
	// the superblock at creation; Open always uses the persisted value, so
	// a mismatched ChunkSize can no longer corrupt the allocator.
	ChunkSize uint64
	// Shards is ignored (a partition owns one value log); it stays only while
	// benchmark/ names it, and goes with the other dead fields (ROADMAP item 1).
	Shards int
	// Partitions hash-partitions the store into that many independent
	// index-partition + value-log pairs (power of two), each with its own
	// arena, drain engine and commit lock. It is the store's only unit of
	// write parallelism: commits to one partition serialize on that
	// partition's lock, held across the record persist, so a caller with
	// several concurrent writers should ask for several partitions. On New,
	// zero means one partition. On Open, zero keeps the partition count
	// persisted in the image; a non-zero count that differs from it is
	// ErrPartitionCount.
	Partitions int
	// DualSlotArray enables the RNTree+DS index variant (recommended for
	// read-heavy stores).
	DualSlotArray bool
	// FlushLatency/FenceLatency set the simulated persist cost.
	FlushLatency pmem.LatencyModel
	// Clock is the time every layer over the store reads: the fence lease,
	// the TTLs, the durable-ack deadlines. Nil means the wall clock.
	Clock clock.Clock
}

func (o *Options) normalize() {
	if o.ArenaSize == 0 {
		o.ArenaSize = 512 << 20
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	o.ChunkSize = (o.ChunkSize + pmem.LineSize - 1) &^ uint64(pmem.LineSize-1)
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
}

// forestOpts maps store options onto the index forest.
func (o Options) forestOpts(partitions int) forest.Options {
	return forest.Options{
		Partitions:  partitions,
		ArenaSize:   o.ArenaSize / uint64(partitions),
		GrowSize:    o.GrowSize,
		MaxSegments: o.MaxSegments,
		Latency:     o.FlushLatency,
		Tree:        core.Options{DualSlot: o.DualSlotArray},
	}
}

// kvPart is one partition of the store: the partition arena and tree (owned
// by the forest) plus the arena's value log — a persisted chunk-chain head
// (the superblock's newest-chunk word), a volatile append cursor, and the
// lock every writer of the partition commits under.
type kvPart struct {
	arena *pmem.Arena
	tree  *core.Tree

	chunkSz uint64

	// mu is the partition's one writer lock. A commit holds it from LSN
	// assignment through append, span flush, tree publish and commit hook,
	// so commits to one partition never overlap and log order is LSN order;
	// ReplApply holds it across watermark check and apply, ReplBacklog for
	// its barrier snapshot, Compact for the rewrite, Update across its step.
	// Readers never take it.
	mu      sync.Mutex
	headOff uint64 // arena offset of the superblock's newest-chunk word
	chunk   uint64 // current chunk base
	used    uint64 // bytes used in the current chunk (volatile)

	// live/dead are the partition's space accounting, read lock-free by
	// Stats.
	live atomic.Int64 // keys whose newest record is a Put
	dead atomic.Int64 // overwritten/tombstone records awaiting Compact

	// readers is the grace period every lock-free chunk reader enters, and
	// Compact waits out before it frees the chunks it cut (grace.go).
	readers grace

	// batchEnts/batchKinds are commitLocked's per-batch scratch, guarded by mu
	// and reused across batches so a commit allocates nothing of its own.
	// Entries reference caller key slices only for the duration of one
	// commitLocked call. tx is Update's and replMuts ReplApply's, reused the
	// same way.
	batchEnts  []batchEntry
	batchKinds []batchKeyKind
	tx         Tx
	replMuts   []Mutation

	// lsn is the partition's log sequence counter: the highest LSN assigned
	// (primary) or applied (replica), written under mu and read lock-free.
	// Recovered from the max reachable record LSN by recount.
	lsn atomic.Uint64
}

// Store is a durable key-value store. Reads are lock-free and may run
// concurrently with any number of writers; writers on different partitions
// proceed in parallel, and Compact locks one partition at a time.
//
// The store's place in the repo-wide lock hierarchy, machine-checked by
// rnvet's lockorder pass (declared edges join the observed acquisition
// graph, so any code path that acquires against this order is a finding):
//
//rnvet:lockorder repl.Node.mu<kv.Store.closeMu<kv.kvPart.mu<core.leafMeta.vl
//rnvet:lockorder kv.Store.closeMu<kv.Store.replStMu<pmem.Heap.allocMu
type Store struct {
	f *forest.Forest
	// hash, when set, replaces Hash; tests set it to force collisions. It
	// sees a copy of the key (keyHash), so no key escapes through the call.
	hash  func([]byte) uint64
	parts []kvPart
	clk   clock.Clock

	// closeMu is the quiesce gate: every mutating operation holds it for
	// read, Close holds it for write. Close therefore waits out all
	// in-flight writers before shutting the forest down, and any writer
	// arriving after the flag flips gets ErrClosed instead of racing the
	// shutdown (the regression this guards: core.Close panics if a write
	// is still in flight). Reads stay lock-free and remain valid after
	// Close — a closed store is a read-only snapshot.
	closeMu sync.RWMutex
	closed  atomic.Bool

	// hook is the installed commit hook (nil pointer = none); see
	// SetCommitHook.
	hook atomic.Pointer[CommitHook]

	// cache is the installed hot-key cache (nil = none); see SetCache.
	cache atomic.Pointer[cache]

	// replStMu serializes SetReplState's read-modify-write of the
	// replication-state line.
	replStMu sync.Mutex
}

// CommitHook observes every committed local mutation: it is called with the
// partition, the record's LSN, its kind (ReplPut/ReplDelete) and the key and
// value bytes, after the mutation's commit point and before its caller
// regains control. The key/val slices are only valid for the duration of the
// call. Replicated applies (ReplApply) do NOT fire the hook — replication
// chains deeper than primary→replicas are not supported.
type CommitHook func(part int, lsn uint64, kind uint8, key, val []byte)

// SetCommitHook installs fn as the store's commit hook (nil uninstalls).
// A commit reads the hook and fires it under its partition's lock, so within
// one partition the hook observes mutations in LSN order — the replication
// shipper's contract — and a hook installed under live writers observes
// every commit that takes the lock after the install. While a hook is
// installed, Compact preserves each key's newest record even when it is a
// tombstone, so the value log remains a complete replication history for
// subscribers resuming from any LSN at or above the compaction floor.
func (s *Store) SetCommitHook(fn CommitHook) {
	if fn == nil {
		s.hook.Store(nil)
		return
	}
	s.hook.Store(&fn)
}

func (s *Store) commitHook() CommitHook {
	if p := s.hook.Load(); p != nil {
		return *p
	}
	return nil
}

// New creates an empty store on fresh arenas (one per partition).
func New(opts Options) (*Store, error) {
	opts.normalize()
	partitions := opts.Partitions
	if partitions == 0 {
		partitions = 1
	}
	f, err := forest.New(opts.forestOpts(partitions))
	if err != nil {
		return nil, err
	}
	s := opts.store(f)
	for i := range s.parts {
		if err := s.parts[i].initPart(opts.ChunkSize); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// store wraps forest f in a Store on the options' clock, with each forest
// partition's arena and tree; the caller formats or recovers the value logs.
func (o Options) store(f *forest.Forest) *Store {
	s := &Store{f: f, parts: make([]kvPart, f.Partitions()), clk: o.Clock}
	for i := range s.parts {
		s.parts[i].arena, s.parts[i].tree = f.Partition(i).Arena(), f.Partition(i).Tree()
	}
	return s
}

// initPart formats a partition's kv state: superblock, root pointer, and the
// log's first chunk.
func (p *kvPart) initPart(chunkSz uint64) error {
	a := p.arena
	sb, err := a.Alloc(sbSize)
	if err != nil {
		return err
	}
	p.chunkSz, p.headOff = chunkSz, sb+sbHeadOff
	a.Write8(sb+sbMagicOff, storeMagic)
	a.Write8(sb+sbChunkSzOff, chunkSz)
	a.Write8(sb+sbHeadOff, pmem.NullOff)
	a.Persist(sb, sbSize)
	a.Write8(rootStoreOff, sb)
	a.Persist(rootStoreOff, 8)
	return p.newChunk()
}

// Snapshot captures the durable state, one image per partition arena in
// partition order (see rntree.Tree.Crash); the store must be quiescent.
func (s *Store) Snapshot() [][]uint64 {
	return s.f.CrashImages(nil, 0)
}

// Arenas exposes the per-partition backing arenas so fault-injection
// harnesses can install persist hooks and synthesize crash images
// (internal/fault).
func (s *Store) Arenas() []*pmem.Arena {
	out := make([]*pmem.Arena, len(s.parts))
	for i := range s.parts {
		out[i] = s.parts[i].arena
	}
	return out
}

// Partitions returns the number of partitions.
func (s *Store) Partitions() int { return len(s.parts) }

// Clock returns the store's clock (Options.Clock).
func (s *Store) Clock() clock.Clock { return s.clk }

// newChunk links a fresh log chunk at the head of the partition's persistent
// chain. The chunk's next pointer is persisted before the head references
// it; a crash in between leaves the chunk unreached, and the next open's
// chain walk does not report it, so it is free space again. Caller holds
// p.mu (or the store is not yet published).
func (p *kvPart) newChunk() error {
	off, err := p.arena.Alloc(p.chunkSz)
	if err != nil {
		return mapFull(err)
	}
	p.arena.Write8(off+chunkNextOff, p.arena.Read8(p.headOff))
	p.arena.Persist(off+chunkNextOff, 8)
	p.arena.Write8(p.headOff, off)
	p.arena.Persist(p.headOff, 8)
	p.chunk = off
	p.used = chunkHdrSize
	return nil
}

// RouteByte opens a routed key: RouteByte, a u16le length n, n route bytes,
// then any rest. A routed key lives in the partition of a flat key of its
// route bytes, so every key routed by one name shares that name's lock
// (Update). Any other key, a RouteByte key shorter than its length field
// says included, routes by itself.
const RouteByte = 0x01

// AppendRoute appends to dst the prefix of a key routed by route (at most
// 65535 bytes); the caller appends the rest.
func AppendRoute(dst, route []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(append(dst, RouteByte), uint16(len(route)))
	return append(dst, route...)
}

// locate returns key's index hash and the partition that holds its record
// and the tree slot pointing at it.
func (s *Store) locate(key []byte) (h uint64, part int) {
	h = s.keyHash(key)
	if len(key) >= 3 && key[0] == RouteByte {
		if end := 3 + int(binary.LittleEndian.Uint16(key[1:])); end <= len(key) {
			return h, s.f.PartitionFor(s.keyHash(key[3:end]))
		}
	}
	return h, s.f.PartitionFor(h)
}

// keyHash is key's index hash: Hash, or the test override called on a copy.
func (s *Store) keyHash(key []byte) uint64 {
	if s.hash != nil {
		return s.hash(bytes.Clone(key))
	}
	return Hash(key)
}

// PartitionOf returns the index, in [0, Partitions()), of the partition
// that owns key. A key's partition never changes while the store is open,
// so callers that shard work by partition — like the server's group
// committer — preserve per-key ordering for free.
func (s *Store) PartitionOf(key []byte) int {
	_, part := s.locate(key)
	return part
}

// Hash maps a key to its 63-bit index key (FNV-1a folded to 63 bits).
func Hash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h & (1<<63 - 1)
}

func recSize(keyLen, valLen int) uint64 {
	return uint64(recHdrSize) + (uint64(keyLen)+7)&^7 + (uint64(valLen)+7)&^7
}

// streamPadded streams b to the word-aligned off, zero-padded to a whole
// word. The words up to the line holding the padded last word come straight
// from b; that line's share (at most 64 bytes) goes through a stack copy.
// Splitting at a line boundary keeps the words written, the image and the
// lines charged exactly those of one WriteStream of the padded copy.
//
//pmem:volatile helper inside the record append; the caller fences the whole record span with one PersistStream
func streamPadded(a *pmem.Arena, off uint64, b []byte) {
	if len(b)%8 == 0 {
		// Already word-aligned: write straight from the caller's bytes. This
		// is the common case for block-sized values.
		a.WriteStream(off, b)
		return
	}
	last := off + uint64(len(b))&^7 // the padded last word's offset
	split := max(off, last&^(pmem.LineSize-1))
	a.WriteStream(off, b[:split-off])
	var tail [pmem.LineSize]byte
	n := copy(tail[:], b[split-off:])
	a.WriteStream(split, tail[:(n+7)&^7])
}

// readRecordMeta decodes kind, key and next of the record at off, skipping
// the value copy (chain walks for accounting don't need it). The key is
// read into buf when it fits there, else into a new slice.
func (p *kvPart) readRecordMeta(off uint64, buf []byte) (kind int, key []byte, next uint64) {
	hdr := p.arena.Read8(off)
	kind = int(hdr & 0xff)
	keyLen := int(hdr >> 8 & 0xffffff)
	next = p.arena.Read8(off + 8)
	kp := (uint64(keyLen) + 7) &^ 7
	kb := buf
	if uint64(cap(kb)) < kp {
		kb = make([]byte, kp)
	}
	kb = kb[:kp]
	p.arena.ReadRange(off+recHdrSize, kp, kb)
	return kind, kb[:keyLen], next
}

// appendValue appends the value of the record at off to dst, which grows by
// exactly its length: the mirror of streamPadded. The words up to the line
// holding the padded last word go straight into dst; that line's share (at
// most 64 bytes) comes through a stack copy. Splitting at a line boundary
// charges exactly the lines of one ReadRange of the padded value.
func (p *kvPart) appendValue(dst []byte, off uint64) []byte {
	hdr := p.arena.Read8(off)
	off += recHdrSize + (hdr>>8&0xffffff+7)&^7
	n := hdr >> 32
	vp := (n + 7) &^ 7
	split := off + vp // word-aligned: all of it straight into dst
	if n%8 != 0 {
		split = max(off, (off+vp-8)&^(pmem.LineSize-1))
	}
	l := len(dst)
	dst = slices.Grow(dst, int(n))
	if split > off {
		dst = dst[:l+int(split-off)]
		p.arena.ReadRange(off, split-off, dst[l:])
	}
	if rest := off + n - split; rest > 0 {
		var tail [pmem.LineSize]byte
		tp := off + vp - split
		p.arena.ReadRange(split, tp, tail[:tp])
		dst = append(dst, tail[:rest]...)
	}
	return dst
}

// readLSN reads the persisted LSN of the record at off.
func (p *kvPart) readLSN(off uint64) uint64 { return p.arena.Read8(off + recLSNOff) }

// chainFind walks a hash chain from head and returns the kind and offset of
// the newest record for key, or 0, 0 if the chain holds no record for it.
// This is how mutations count precisely: the newest record for the mutated
// key — not whatever happens to sit at the chain head, which may belong to a
// colliding key — is what a new append shadows.
func (p *kvPart) chainFind(head uint64, key []byte) (kind int, off uint64) {
	var buf [64]byte // keys up to 64 bytes are compared from the stack
	for off = head; off != 0; {
		kind, rkey, next := p.readRecordMeta(off, buf[:])
		if bytes.Equal(rkey, key) {
			return kind, off
		}
		off = next
	}
	return 0, 0
}

// find returns the offset of key's newest record, of index hash h, and
// whether it is a put. The caller is in the partition's reader section.
func (p *kvPart) find(h uint64, key []byte) (off uint64, ok bool) {
	head, found := p.tree.Find(h)
	if !found {
		return 0, false
	}
	kind, off := p.chainFind(head, key)
	return off, kind == recPut
}

// Put stores key → value (insert or overwrite). Puts on different
// partitions run in parallel.
func (s *Store) Put(key, value []byte) error {
	_, _, err := s.PutEx(key, value)
	return err
}

// PutEx is Put returning the partition index and the committed record's LSN.
func (s *Store) PutEx(key, value []byte) (part int, lsn uint64, err error) {
	m := [1]Mutation{{Key: key, Val: value}}
	s.commitOne(m[:])
	return m[0].Part, m[0].LSN, m[0].Err
}

// Get returns the value stored under key, in a new slice the caller owns.
// Lock-free.
func (s *Store) Get(key []byte) ([]byte, error) { return s.AppendGet(nil, key) }

// AppendGet appends the value stored under key to dst and returns the
// extended buffer; on error it returns dst unchanged. Lock-free. The value is
// copied once, from the value log or from the hot-key cache (SetCache), so a
// caller that reuses dst reads without allocating.
func (s *Store) AppendGet(dst, key []byte) ([]byte, error) {
	h, pi := s.locate(key)
	c := s.cache.Load()
	if c == nil || !cacheable(key) {
		return s.appendGet(dst, key, h, pi)
	}
	sh := c.shard(h)
	if out, ok := c.get(sh, dst, h, key); ok {
		return out, nil
	}
	epoch := sh.epoch.Load() // before the store read: see cache.go
	out, err := s.appendGet(dst, key, h, pi)
	if err == nil {
		c.commitFill(sh, h, key, out[len(dst):], epoch)
	}
	return out, err
}

// appendGet is AppendGet from the store itself, for key of index hash h in
// partition pi.
func (s *Store) appendGet(dst, key []byte, h uint64, pi int) ([]byte, error) {
	p := &s.parts[pi]
	defer p.readers.exit(p.readers.enter(h))
	off, ok := p.find(h, key)
	if !ok {
		return dst, ErrNotFound
	}
	return p.appendValue(dst, off), nil
}

// Has reports whether key is present. Lock-free.
func (s *Store) Has(key []byte) bool {
	h, pi := s.locate(key)
	p := &s.parts[pi]
	defer p.readers.exit(p.readers.enter(h))
	_, ok := p.find(h, key)
	return ok
}

// Delete removes key (tombstone append; reclaimed by Compact), or returns
// ErrNotFound, writing nothing, when it is absent. Deletes on different
// partitions run in parallel.
func (s *Store) Delete(key []byte) error {
	m := [1]Mutation{{Key: key, Delete: true}}
	s.commitOne(m[:])
	return m[0].Err
}

// Range calls fn for every live key/value pair (hash order within each
// partition, partition by partition — unordered with respect to the
// original keys). key and value are valid only until fn returns: Range
// reads the next pair into the same memory, so fn copies what it keeps. fn
// must not mutate the store: it runs inside the partition's reader section,
// which Compact waits out under the partition lock.
func (s *Store) Range(fn func(key, value []byte) bool) {
	for i := range s.parts {
		if !s.parts[i].rangeLive(fn) {
			return
		}
	}
}

// rangeLive is Range over one partition, reporting whether fn let it finish.
func (p *kvPart) rangeLive(fn func(key, value []byte) bool) bool {
	defer p.readers.exit(p.readers.enter(0))
	stopped := false
	var buf [64]byte // keys up to 64 bytes are read into this one buffer
	// seen and ends are recount's: the keys of the current chain already
	// met, reused across chains, as is the value buffer.
	var seen, val []byte
	var ends []int
	p.tree.Scan(0, 0, func(_, off uint64) bool {
		// Walk the chain newest-first: a key's first record is its newest,
		// and only if it is a put is its value read and reported.
		seen, ends = seen[:0], ends[:0]
		for off != 0 {
			kind, key, next := p.readRecordMeta(off, buf[:])
			if !chainSeen(seen, ends, key) {
				seen = append(seen, key...)
				ends = append(ends, len(seen))
				if kind == recPut {
					if val = p.appendValue(val[:0], off); !fn(key, val) {
						stopped = true
						return false
					}
				}
			}
			off = next
		}
		return true
	})
	return !stopped
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	n := 0
	s.Range(func(_, _ []byte) bool { n++; return true })
	return n
}

// Stats summarises the store.
type Stats struct {
	LiveKeys    int
	DeadRecords int
	Partitions  int
	Persists    uint64
	TreeLeaves  int
}

// Stats returns store counters. Safe to call concurrently with writers:
// the per-partition counters are atomics rolled up here.
func (s *Store) Stats() Stats {
	var live, dead int64
	var persists uint64
	for i := range s.parts {
		p := &s.parts[i]
		live += p.live.Load()
		dead += p.dead.Load()
		persists += p.arena.Stats().Persists
	}
	return Stats{
		LiveKeys:    int(live),
		DeadRecords: int(dead),
		Partitions:  len(s.parts),
		Persists:    persists,
		TreeLeaves:  s.f.LeafCount(),
	}
}

// HTMStats sums the emulated-HTM outcome counters of the partitions' index
// trees: commits, aborts by cause, fallback-lock acquisitions.
func (s *Store) HTMStats() htm.Stats { return s.f.Stats().HTM }

// ReadRetries sums the index read attempts wasted on a concurrent writer or
// split across partitions (§6.3).
func (s *Store) ReadRetries() uint64 { return s.f.ReadRetries() }

// Close takes the clean-shutdown path: it waits out every in-flight
// mutation (Put/Delete/PutBatch/Compact), flips the store read-only, and
// closes the index forest (persisting transient bookkeeping and arming
// each partition's clean flag, so the next Open reconstructs instead of
// crash-recovering). Mutations that arrive during or after Close return
// ErrClosed; reads remain valid. A second Close returns ErrClosed.
func (s *Store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.closed.Store(true)
	s.f.Close()
	return nil
}

// Checkpoint is Close plus a snapshot of the resulting durable state (one
// image per partition arena): the images reopen through Open's fast
// reconstruction path. This is what a server's graceful drain calls once
// all in-flight requests have completed.
func (s *Store) Checkpoint() ([][]uint64, error) {
	if err := s.Close(); err != nil {
		return nil, err
	}
	return s.Snapshot(), nil
}
