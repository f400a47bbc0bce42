package kv

import (
	"fmt"

	"rntree/internal/forest"
	"rntree/internal/pmem"
)

// Open recovers a store from a snapshot (one image per partition arena, in
// partition order): every partition's tree index is rebuilt via crash
// recovery, its superblock, chain-head line and chunk chain are validated,
// and appends continue in a fresh chunk (the tail of the pre-crash chunk is
// sacrificed, as in any bump-allocated log).
//
// The store geometry — chunk size, partition count — is read from the
// persisted superblocks, not from opts, so opening with different Options
// than the store was created with is safe. The one exception is a non-zero
// opts.Partitions that differs from the number of images: that fails with
// ErrPartitionCount before any image is looked at — a store is never
// repartitioned on the way in. An image whose superblock magic is not the
// current format's, or whose partitions hold more than one value log (a
// geometry older builds could write), fails with ErrUnsupportedFormat; one
// whose persisted pointers or geometry cannot belong to a store fails with
// ErrCorrupt. Open never repairs, and rejects before its first write.
func Open(imgs [][]uint64, opts Options) (*Store, error) {
	opts.normalize()
	if err := opts.checkPartitions(len(imgs)); err != nil {
		return nil, err
	}
	arenas := make([]*pmem.Arena, len(imgs))
	for i, img := range imgs {
		a, err := pmem.Recover(img, pmem.Config{Latency: opts.FlushLatency})
		if err != nil {
			return nil, fmt.Errorf("%w: partition %d: %w", ErrCorrupt, i, err)
		}
		arenas[i] = a
	}
	return openPartitioned(arenas, opts)
}

// OpenArenas is Open on already-recovered arenas: the caller keeps
// ownership of the arenas, so persist hooks installed on them observe the
// recovery persists — the entry point the fault-injection explorer uses to
// crash *inside* recovery. Each arena must come straight from
// pmem.Recover, with no Alloc or Free since (see pmem.Heap.MarkLive).
func OpenArenas(arenas []*pmem.Arena, opts Options) (*Store, error) {
	opts.normalize()
	if err := opts.checkPartitions(len(arenas)); err != nil {
		return nil, err
	}
	return openPartitioned(arenas, opts)
}

// checkPartitions holds the caller's partition count against the number of
// images handed to Open; zero asks for whatever the images hold.
func (o Options) checkPartitions(images int) error {
	if images == 0 {
		return fmt.Errorf("kv: no arenas to open")
	}
	if o.Partitions != 0 && o.Partitions != images {
		return fmt.Errorf("%w: Options.Partitions is %d, the store has %d partition images",
			ErrPartitionCount, o.Partitions, images)
	}
	return nil
}

// openPartitioned recovers a partition-complete store: the forest layer
// verifies the arena set (count, order, per-partition forest superblocks),
// then each partition's value-log state is rebuilt independently from its
// own kv superblock.
func openPartitioned(arenas []*pmem.Arena, opts Options) (*Store, error) {
	fopts := opts.forestOpts(len(arenas))
	f, err := forest.OpenArenas(arenas, fopts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	s := opts.store(f)
	for i := range s.parts {
		p := &s.parts[i]
		if err := openPart(p, i, len(arenas)); err != nil {
			return nil, err
		}
		p.recount()
	}
	return s, nil
}

// openPart rebuilds one partition's value-log state from its persisted
// superblock. Every block it reaches — superblock, chain-head line,
// replication-state line, each chunk — is reported to the heap
// (pmem.Arena.MarkLive) before it is dereferenced, which rejects a block the
// allocator could not have handed out or one already reported: a hostile
// image yields ErrCorrupt, never a panic or a hang, and the first chunk
// allocation below frees whatever no owner reached.
func openPart(p *kvPart, idx, parts int) error {
	a := p.arena
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: partition %d: %s", ErrCorrupt, idx, fmt.Sprintf(format, args...))
	}
	if err := a.CheckHeap(); err != nil {
		return corrupt("%v", err)
	}
	sb := a.Read8(rootStoreOff)
	if err := a.MarkLive(sb, sbSize); err != nil {
		return corrupt("store superblock pointer: %v", err)
	}
	if magic := a.Read8(sb + sbMagicOff); magic != storeMagic {
		if magic>>16 == storeMagic>>16 {
			return fmt.Errorf("%w: partition %d: superblock magic %#x, this build reads only %#x",
				ErrUnsupportedFormat, idx, magic, uint64(storeMagic))
		}
		return corrupt("bad superblock magic %#x", magic)
	}
	chunkSz := a.Read8(sb + sbChunkSzOff)
	head := a.Read8(sb + sbHeadOff)
	switch logs := a.Read8(sb + sbLogsOff); {
	case logs == 1:
	case logs == 0 || logs > 64 || logs&(logs-1) != 0: // nothing any build wrote
		return corrupt("value-log count %d", logs)
	default: // 2, 4 … 64: a build that sharded the log inside a partition
		return fmt.Errorf("%w: partition %d: %d value-log shards per partition, this build reads only 1",
			ErrUnsupportedFormat, idx, logs)
	}
	if chunkSz < 2*pmem.LineSize || chunkSz%pmem.LineSize != 0 || chunkSz > a.Bump() {
		return corrupt("chunk size %d", chunkSz)
	}
	if err := a.MarkLive(head, pmem.LineSize); err != nil {
		return corrupt("chain-head pointer: %v", err)
	}
	if r0, r1 := a.Read8(sb+sbReserved0Off), a.Read8(sb+sbReserved1Off); r0 != 0 || r1 != 0 {
		return corrupt("reserved superblock words %#x, %#x not null", r0, r1)
	}
	if got := a.Read8(sb + sbPartsOff); got != uint64(parts) {
		return corrupt("superblock says %d partitions, opening %d", got, parts)
	}
	if got := a.Read8(sb + sbPartIdxOff); got != uint64(idx) {
		return corrupt("arena belongs at position %d", got)
	}
	// The replication-state line (kv/repl.go) hangs off the root line too.
	if r := a.Read8(rootReplOff); r != pmem.NullOff {
		if err := a.MarkLive(r, pmem.LineSize); err != nil {
			return corrupt("replication-state pointer: %v", err)
		}
	}
	p.sbOff, p.chunkSz, p.headOff = sb, chunkSz, head
	// A chunk reported twice is a cycle or an alias.
	for c := a.Read8(head); c != pmem.NullOff; c = a.Read8(c + chunkNextOff) {
		if err := a.MarkLive(c, chunkSz); err != nil {
			return corrupt("chunk pointer: %v", err)
		}
	}
	if err := p.checkHeapRecord(); err != nil {
		return corrupt("%v", err)
	}
	if err := p.newChunk(); err != nil {
		return err
	}
	// The heap record may be stale relative to the heap headers (growth
	// after the last clean Close); bring it current.
	p.refreshHeapLine()
	return nil
}

// checkHeapRecord validates the superblock's heap record against the
// arena's authoritative segment headers. Pure validation: it writes nothing.
func (p *kvPart) checkHeapRecord() error {
	a := p.arena
	sb := p.sbOff
	if heap := a.Read8(sb + sbHeapOff); heap != 1 {
		return fmt.Errorf("superblock heap flag %d, want 1", heap)
	}
	if rec := a.Read8(sb + sbSeg0SzOff); rec != a.Seg0Size() {
		return fmt.Errorf("superblock records segment-0 size %d, heap has %d", rec, a.Seg0Size())
	}
	if rec := a.Read8(sb + sbGrowSzOff); rec != a.GrowSize() {
		return fmt.Errorf("superblock records grow size %d, heap has %d", rec, a.GrowSize())
	}
	// The heap can only have grown since the record was written (a grow
	// that crashed before its cutover is truncated by recovery).
	if rec := a.Read8(sb + sbNsegsOff); rec > uint64(a.Segments()) {
		return fmt.Errorf("superblock records %d segments, heap committed only %d", rec, a.Segments())
	}
	return nil
}

// recount rebuilds the partition's live counter exactly by walking every
// hash chain (dead records restart at zero after recovery;
// Compact re-derives them), and recovers the partition's LSN counter as the
// max LSN over all reachable records — the durable replication watermark: a
// record whose tree publish did not survive the crash is unreachable, so a
// replica resubscribing from this watermark re-receives it. Runs
// single-threaded inside Open.
func (p *kvPart) recount() {
	maxLSN := uint64(0)
	p.tree.Scan(0, 0, func(_, off uint64) bool {
		seen := map[string]bool{}
		for off != 0 {
			kind, key, next := p.readRecordMeta(off, nil)
			if l := p.readLSN(off); l > maxLSN {
				maxLSN = l
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				if kind == recPut {
					p.live.Add(1)
				}
			}
			off = next
		}
		return true
	})
	if maxLSN > p.lsn.Load() {
		p.lsn.Store(maxLSN)
	}
}
