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
// A partition owns exactly one value log: the partition superblock roots a
// persisted chain-head line that heads the log's chunk chain, with one
// volatile append cursor and one lock, held by every commit from LSN
// assignment to the commit hook — so a partition's log order is its LSN
// order, and partitions (Options.Partitions) are the only unit of write
// parallelism. The superblock binds the value log to its index partition —
// geometry, partition count and partition index are all persisted per
// arena — so recovery can rebuild every partition independently and verify
// a set of crash images really is one store. Reads are lock-free on every
// path.
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
	// package could have written: a superblock, chain-head or chunk-chain
	// word that is out of bounds, misaligned, cyclic or inconsistent with
	// the heap. It wraps the detail. Open rejects such an image untouched;
	// there is no repair.
	ErrCorrupt = errors.New("kv: corrupt store image")
	// ErrUnsupportedFormat is returned by Open for an image written in a
	// superblock format other than the current one, or by a build that still
	// split a partition's value log into several shards.
	ErrUnsupportedFormat = errors.New("kv: unsupported store format")
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

	// storeMagic identifies the one superblock format: two lines, the first
	// holding the value-log geometry and the arena's partition binding, the
	// second the heap record. Any other magic is rejected by Open. v5 is v4
	// with routed keys, which a v4 image may hold in another partition.
	storeMagic = 0x524e_4b56_0005 // "RNKV" v5

	// Superblock first line. Words 32 and 40 are reserved: written null,
	// and a non-null value is a format error.
	sbMagicOff     = 0
	sbChunkSzOff   = 8  // persisted log chunk size
	sbLogsOff      = 16 // value logs in this partition: always 1
	sbHeadOff      = 24 // offset of the chain-head line (word 0: newest chunk)
	sbReserved0Off = 32 // reserved, null
	sbReserved1Off = 40 // reserved, null
	sbPartsOff     = 48 // total partitions in the store
	sbPartIdxOff   = 56 // this arena's partition index

	// Superblock second line: the heap record. The segment headers
	// (internal/pmem) stay authoritative — recovery reads geometry from
	// them before any kv code runs — so these words are a cross-check.
	// nsegs is refreshed on clean Close and on every Open, so after a
	// crash it may lag the heap's committed count (never lead it). Word 96
	// is retired: earlier builds kept a second encoding of sbHeadOff
	// there, so it is written null and never read.
	sbHeapOff    = 64 // always 1: the partition arena is heap-formatted
	sbSeg0SzOff  = 72 // heap segment-0 size in bytes
	sbGrowSzOff  = 80 // heap grow-segment size in bytes
	sbNsegsOff   = 88 // committed segments when the line was last written
	sbRetiredOff = 96 // retired, written null

	sbSize = 2 * pmem.LineSize

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
	// exhaustion surface as ErrFull).
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
// (one line), a volatile append cursor, and the lock every writer of the
// partition commits under.
type kvPart struct {
	arena *pmem.Arena
	tree  *core.Tree

	sbOff   uint64
	chunkSz uint64

	// mu is the partition's one writer lock. A commit holds it from LSN
	// assignment through append, span flush, tree publish and commit hook,
	// so commits to one partition never overlap and log order is LSN order;
	// ReplApply holds it across watermark check and apply, ReplBacklog for
	// its barrier snapshot, Compact for the rewrite, Update across its step.
	// Readers never take it.
	mu      sync.Mutex
	headOff uint64 // arena offset of the chain-head line (word 0: newest chunk)
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
	// commitLocked call. tx is Update's, reused the same way.
	batchEnts  []batchEntry
	batchKinds []batchKeyKind
	tx         Tx

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
	f     *forest.Forest
	hash  func([]byte) uint64 // Hash, overridable by tests to force collisions
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
		if err := s.initPart(&s.parts[i], i, opts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// store wraps forest f in a Store on the options' clock, with each forest
// partition's arena and tree; the caller formats or recovers the value logs.
func (o Options) store(f *forest.Forest) *Store {
	s := &Store{f: f, hash: Hash, parts: make([]kvPart, f.Partitions()), clk: o.Clock}
	for i := range s.parts {
		s.parts[i].arena, s.parts[i].tree = f.Partition(i).Arena(), f.Partition(i).Tree()
	}
	return s
}

// initPart formats partition i's kv state: chain-head line, superblock, root
// pointer, and the log's first chunk.
func (s *Store) initPart(p *kvPart, idx int, opts Options) error {
	a := p.arena
	sb, err := a.Alloc(sbSize)
	if err != nil {
		return err
	}
	head, err := a.Alloc(pmem.LineSize)
	if err != nil {
		return err
	}
	p.sbOff, p.chunkSz, p.headOff = sb, opts.ChunkSize, head
	a.Write8(head, pmem.NullOff)
	a.Persist(head, pmem.LineSize)
	a.Write8(sb+sbMagicOff, storeMagic)
	a.Write8(sb+sbChunkSzOff, opts.ChunkSize)
	a.Write8(sb+sbLogsOff, 1)
	a.Write8(sb+sbHeadOff, head)
	a.Write8(sb+sbReserved0Off, pmem.NullOff)
	a.Write8(sb+sbReserved1Off, pmem.NullOff)
	a.Write8(sb+sbPartsOff, uint64(len(s.parts)))
	a.Write8(sb+sbPartIdxOff, uint64(idx))
	p.writeHeapLine()
	a.Persist(sb, sbSize)
	a.Write8(rootStoreOff, sb)
	a.Persist(rootStoreOff, 8)
	return p.newChunk()
}

// writeHeapLine fills (without persisting) the superblock's heap record
// from the arena's current state. Callers persist the superblock line(s)
// themselves; refreshHeapLine is the persist-it-now variant used on clean
// shutdown and after recovery, when the heap may have grown since the line
// was last written.
//
//pmem:volatile every caller persists the line: initPart persists the whole fresh superblock before the root flip, refreshHeapLine persists immediately
func (p *kvPart) writeHeapLine() {
	a := p.arena
	sb := p.sbOff
	a.Write8(sb+sbHeapOff, 1)
	a.Write8(sb+sbSeg0SzOff, a.Seg0Size())
	a.Write8(sb+sbGrowSzOff, a.GrowSize())
	a.Write8(sb+sbNsegsOff, uint64(a.Segments()))
	a.Write8(sb+sbRetiredOff, pmem.NullOff)
}

func (p *kvPart) refreshHeapLine() {
	p.writeHeapLine()
	p.arena.Persist(p.sbOff+sbHeapOff, pmem.LineSize)
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
// it, so a crash in between merely leaks the fresh chunk. Caller holds p.mu
// (or the store is not yet published).
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
	h = s.hash(key)
	if len(key) >= 3 && key[0] == RouteByte {
		if end := 3 + int(binary.LittleEndian.Uint16(key[1:])); end <= len(key) {
			return h, s.f.PartitionFor(s.hash(key[3:end]))
		}
	}
	return h, s.f.PartitionFor(h)
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

// readRecord decodes the record at off.
func (p *kvPart) readRecord(off uint64) (kind int, key, val []byte, next uint64) {
	hdr := p.arena.Read8(off)
	kind = int(hdr & 0xff)
	keyLen := int(hdr >> 8 & 0xffffff)
	valLen := int(hdr >> 32)
	next = p.arena.Read8(off + 8)
	kp := (uint64(keyLen) + 7) &^ 7
	kb := make([]byte, kp)
	p.arena.ReadRange(off+recHdrSize, kp, kb)
	key = kb[:keyLen]
	vp := (uint64(valLen) + 7) &^ 7
	if vp > 0 {
		vb := make([]byte, vp)
		p.arena.ReadRange(off+recHdrSize+kp, vp, vb)
		val = vb[:valLen]
	}
	return kind, key, val, next
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

// readLSN reads the persisted LSN of the record at off.
func (p *kvPart) readLSN(off uint64) uint64 { return p.arena.Read8(off + recLSNOff) }

// chainFindKind walks a hash chain from head and returns the kind of the
// newest record for key, or 0 if the chain holds no record for it. This is
// how mutations count precisely: the newest record for the mutated key —
// not whatever happens to sit at the chain head, which may belong to a
// colliding key — is what a new append shadows.
func (p *kvPart) chainFindKind(head uint64, key []byte) int {
	var buf [64]byte // keys up to 64 bytes are compared from the stack
	for off := head; off != 0; {
		kind, rkey, next := p.readRecordMeta(off, buf[:])
		if bytes.Equal(rkey, key) {
			return kind
		}
		off = next
	}
	return 0
}

// lookup walks the hash chain for key. Returns the newest matching record.
func (s *Store) lookup(key []byte) (kind int, val []byte, ok bool) {
	h, pi := s.locate(key)
	p := &s.parts[pi]
	defer p.readers.exit(p.readers.enter(h))
	off, found := p.tree.Find(h)
	if !found {
		return 0, nil, false
	}
	for off != 0 {
		k, rkey, rval, next := p.readRecord(off)
		if bytes.Equal(rkey, key) {
			return k, rval, true
		}
		off = next
	}
	return 0, nil, false
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

// Get returns the value stored under key. Lock-free. With a hot-key cache
// installed (SetCache), a flat key's value may be shared with the cache, so
// the caller must not modify it.
func (s *Store) Get(key []byte) ([]byte, error) {
	c := s.cache.Load()
	if c == nil || !cacheable(key) {
		return s.get(key)
	}
	if val, ok := c.get(key); ok {
		return val, nil
	}
	epoch := c.fillEpoch(key) // before the store read: see cache.go
	val, err := s.get(key)
	if err == nil {
		c.commitFill(key, val, epoch)
	}
	return val, err
}

// get is Get from the store itself.
func (s *Store) get(key []byte) ([]byte, error) {
	kind, val, ok := s.lookup(key)
	if !ok || kind == recDelete {
		return nil, ErrNotFound
	}
	return val, nil
}

// Has reports whether key is present. Lock-free.
func (s *Store) Has(key []byte) bool {
	kind, _, ok := s.lookup(key)
	return ok && kind != recDelete
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
// original keys). fn must not mutate the store: it runs inside the
// partition's reader section, which Compact waits out under the partition
// lock.
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
	p.tree.Scan(0, 0, func(_, off uint64) bool {
		// Walk the chain newest-first, reporting the first (newest)
		// record per distinct key.
		seen := map[string]bool{}
		for off != 0 {
			kind, key, val, next := p.readRecord(off)
			if !seen[string(key)] {
				seen[string(key)] = true
				if kind == recPut {
					if !fn(key, val) {
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
	// The heap may have grown since the superblock's heap record was last
	// written; refresh it so a clean image carries the current segment
	// count and chain-head address.
	for i := range s.parts {
		s.parts[i].refreshHeapLine()
	}
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
