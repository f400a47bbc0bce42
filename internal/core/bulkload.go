package core

import (
	"fmt"

	"rntree/internal/htm"
	"rntree/internal/pmem"
	"rntree/internal/tree"
)

// BulkLoad formats the arena with an RNTree pre-populated from records
// sorted by strictly increasing key. Leaves are laid out directly at the
// given fill fraction (default ½, the post-split steady state) and
// persisted once each, so loading n records costs O(n/leaf) persistent
// instructions instead of 2n — the standard warm-up path for benchmarks
// and for rebuilding a tree from a snapshot.
func BulkLoad(arena *pmem.Arena, opts Options, records []tree.KV) (*Tree, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	for i := 1; i < len(records); i++ {
		if records[i].Key <= records[i-1].Key {
			return nil, fmt.Errorf("core: bulk load records not strictly sorted at %d", i)
		}
	}
	t := &Tree{
		arena:    arena,
		metas:    newMetaTable(),
		capacity: opts.LeafCapacity,
		lsize:    imageSize(opts.LeafCapacity),
		dual:     opts.DualSlot,
		flushCS:  opts.FlushInCS,
	}

	perLeaf := t.capacity / 2
	if perLeaf < 1 {
		perLeaf = 1
	}
	nLeaves := (len(records) + perLeaf - 1) / perLeaf
	if nLeaves == 0 {
		nLeaves = 1
	}

	// Allocate and fill the leaf chain back to front so each leaf knows its
	// successor's offset when written.
	offs := make([]uint64, nLeaves)
	for i := range offs {
		off, err := arena.Alloc(t.lsize)
		if err != nil {
			// Return the partial chain to the allocator so a failed bulk
			// load leaves no leak behind (the blocks were never linked).
			for _, o := range offs[:i] {
				arena.Free(o, t.lsize)
			}
			return nil, tree.ErrFull
		}
		offs[i] = off
	}
	for i := nLeaves - 1; i >= 0; i-- {
		lo := i * perLeaf
		hi := lo + perLeaf
		if hi > len(records) {
			hi = len(records)
		}
		next := pmem.NullOff
		if i+1 < nLeaves {
			next = offs[i+1]
		}
		keys := make([]uint64, hi-lo)
		vals := make([]uint64, hi-lo)
		for j := lo; j < hi; j++ {
			keys[j-lo] = records[j].Key
			vals[j-lo] = records[j].Value
		}
		t.writeLeafImage(offs[i], keys, vals, next)
		arena.Persist(offs[i], imageSize(len(keys)))
	}

	arena.Write8(rootHeadOff, offs[0])
	arena.Write8(rootMagicOff, rootMagic)
	arena.Write8(rootCapOff, uint64(t.capacity))
	arena.Write8(rootCleanOff, 0)
	arena.Persist(0, pmem.RootSize)

	// Volatile state: metas, bounds, chain, index — same walk recovery uses.
	t.region = htm.NewRegion(arena, opts.HTM)
	if err := t.walkChain(walkBulkLoad); err != nil {
		return nil, err
	}
	return t, nil
}
