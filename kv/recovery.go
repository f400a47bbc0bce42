package kv

import (
	"bytes"
	"fmt"
	"slices"

	"rntree/internal/forest"
	"rntree/internal/pmem"
)

// Open recovers a store from a snapshot (one image per partition arena, in
// partition order): every partition's tree index is rebuilt via crash
// recovery, its superblock and chunk chain are validated, and the first
// append allocates a fresh chunk (the tail of the pre-crash chunk is
// sacrificed, as in any bump-allocated log). Open itself allocates nothing on
// the log path, so a store that filled its arena reopens: its reads succeed
// and its writes fail with ErrFull as before the crash.
//
// The store geometry — chunk size, partition count — is read from the
// images, not from opts, so opening with different Options than the store
// was created with is safe. The one exception is a non-zero opts.Partitions
// that differs from the number of images: that fails with ErrPartitionCount
// before any image is looked at — a store is never repartitioned on the way
// in. An image in any other format, or whose persisted pointers or geometry
// cannot belong to a store, fails with ErrCorrupt. Open never repairs, and
// rejects before its first write.
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
// verifies the arena set (count and order, from each root line's binding),
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
		if err := openPart(p, i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openPart rebuilds one partition's value-log state from its persisted
// superblock. Every block it reaches — superblock, replication-state line,
// each chunk — is reported to the heap (pmem.Arena.MarkLive) before it is
// dereferenced, which rejects a block the allocator could not have handed
// out or one already reported, and every record the index reaches must lie
// in one of those chunks (recount): a hostile image yields ErrCorrupt, never
// a panic or a hang. The partition's open chunk is left full, so the first
// append's chunk allocation, the heap's first, frees whatever no owner
// reached.
func openPart(p *kvPart, idx int) error {
	a := p.arena
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: partition %d: %s", ErrCorrupt, idx, fmt.Sprintf(format, args...))
	}
	sb := a.Read8(rootStoreOff)
	if err := a.MarkLive(sb, sbSize); err != nil {
		return corrupt("store superblock pointer: %v", err)
	}
	if magic := a.Read8(sb + sbMagicOff); magic != storeMagic {
		return corrupt("bad superblock magic %#x", magic)
	}
	chunkSz := a.Read8(sb + sbChunkSzOff)
	if chunkSz < 2*pmem.LineSize || chunkSz%pmem.LineSize != 0 || chunkSz > a.Bump() {
		return corrupt("chunk size %d", chunkSz)
	}
	// The replication-state line (kv/repl.go) hangs off the root line too.
	if r := a.Read8(rootReplOff); r != pmem.NullOff {
		if err := a.MarkLive(r, pmem.LineSize); err != nil {
			return corrupt("replication-state pointer: %v", err)
		}
	}
	p.chunkSz, p.headOff = chunkSz, sb+sbHeadOff
	// A chunk reported twice is a cycle or an alias.
	var chunks []uint64
	for c := a.Read8(p.headOff); c != pmem.NullOff; c = a.Read8(c + chunkNextOff) {
		if err := a.MarkLive(c, chunkSz); err != nil {
			return corrupt("chunk pointer: %v", err)
		}
		chunks = append(chunks, c)
	}
	if err := p.recount(chunks); err != nil {
		return corrupt("%v", err)
	}
	p.used = chunkSz
	return nil
}

// recount rebuilds the partition's live counter exactly by walking every
// hash chain (dead records restart at zero after recovery;
// Compact re-derives them), and recovers the partition's LSN counter as the
// max LSN over all reachable records — the durable replication watermark: a
// record whose tree publish did not survive the crash is unreachable, so a
// replica resubscribing from this watermark re-receives it. Every record it
// reaches must lie whole inside one of chunks, the log's chain: a record
// anywhere else sits in space the next allocation hands out again. It writes
// nothing to the arena; runs single-threaded inside Open.
func (p *kvPart) recount(chunks []uint64) error {
	slices.Sort(chunks)
	inChunk := func(off, size uint64) bool {
		i, _ := slices.BinarySearch(chunks, off+1) // chunks[i-1] is the last base <= off
		return i > 0 && off%pmem.WordSize == 0 && off >= chunks[i-1]+chunkHdrSize &&
			size <= p.chunkSz && off-chunks[i-1] <= p.chunkSz-size
	}
	hops := uint64(len(chunks)) * p.chunkSz / recHdrSize // records the chain can hold
	maxLSN := uint64(0)
	var err error
	var buf [64]byte // keys up to 64 bytes are read onto the stack
	// seen holds the keys of the current hash chain already counted, back to
	// back, each ending at its entry of ends; both are reused across chains.
	var seen []byte
	var ends []int
	p.tree.Scan(0, 0, func(_, off uint64) bool {
		seen, ends = seen[:0], ends[:0]
		for ; off != 0; hops-- {
			if hops == 0 || !inChunk(off, recHdrSize) {
				err = fmt.Errorf("record %#x is not in the value log's chain", off)
				return false
			}
			hdr := p.arena.Read8(off)
			if !inChunk(off, recSize(int(hdr>>8&0xffffff), int(hdr>>32))) {
				err = fmt.Errorf("record %#x runs past its chunk", off)
				return false
			}
			kind, key, next := p.readRecordMeta(off, buf[:])
			if l := p.readLSN(off); l > maxLSN {
				maxLSN = l
			}
			if !chainSeen(seen, ends, key) {
				seen = append(seen, key...)
				ends = append(ends, len(seen))
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
	return err
}

// chainSeen reports whether key is one of the keys packed into seen, the
// i-th ending at ends[i].
func chainSeen(seen []byte, ends []int, key []byte) bool {
	start := 0
	for _, end := range ends {
		if bytes.Equal(seen[start:end], key) {
			return true
		}
		start = end
	}
	return false
}
