package core

// Per-leaf fingerprint filter (ROADMAP item 4, FPTree §3.1 / the sentinel
// idea of "Boosting the Search Performance of B+-tree for NVM"): a
// DRAM-resident 1-byte hash per log entry that lets Find answer most probes
// with a byte scan over DRAM instead of a binary search issuing O(log n)
// NVM reads through arena.Read8.
//
// The filter is indexed by LOG ENTRY, not by slot rank. That choice is what
// makes it coherent under the tree's concurrency protocol without any
// locking on the read side:
//
//   - A log entry is write-once between compactions (§4.2): once published
//     by a slot array, its key never changes until a compaction frees it
//     for reuse — and compactions run under SplitBit and bump the leaf
//     version, which the reader's existing version validation catches.
//   - Writers store the entry's fingerprint (under the leaf lock) BEFORE
//     publishing the slot line that references it, so any entry a reader
//     finds in its slot-array snapshot already has its fingerprint in
//     place: the HTM commit that published the line is an atomic release,
//     and the reader's line snapshot is the matching acquire.
//   - A reader therefore consults fingerprints only for entries in its own
//     snapshot. Stale bytes for unpublished or removed entries are never
//     probed; a fingerprint collision merely costs one arena key read,
//     which the full-key verify rejects.
//
// The bytes are packed into atomic words (8 fingerprints per word): all
// stores happen under the leaf lock or SplitBit so plain read-modify-write
// is race-free on the writer side, while readers snapshot whole words with
// atomic loads to stay clean under the race detector.
//
//pmem:volatile fingerprints are a DRAM-only filter, rebuilt from the persistent slot arrays and logs on every recovery path (walkChain)

// fpWords is the size of the packed fingerprint array in 8-byte words.
const fpWords = MaxLeafCapacity / 8

// fpHash condenses a key into its 1-byte fingerprint. The splitmix64
// finalizer spreads every input bit over the output, so the top byte is as
// good as any; 0 is a valid fingerprint (no reserved "empty" value — slot
// membership, not the fingerprint, decides whether an entry is live).
func fpHash(key uint64) byte {
	x := key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return byte(x >> 56)
}

// setFp records the fingerprint of log entry e. Callers must hold the leaf
// lock (or SplitBit during a split rewrite): stores are serialized, so a
// load/modify/store on the shared word cannot lose a concurrent update.
func (m *leafMeta) setFp(e int, fp byte) {
	w := &m.fps[e>>3] //rnvet:ignore atomicfield w is a one-statement alias; the only accesses through it are the atomic Load/Store below
	shift := uint(e&7) * 8
	w.Store(w.Load()&^(0xff<<shift) | uint64(fp)<<shift)
}

// loadFps snapshots the packed fingerprint words.
func (m *leafMeta) loadFps(dst *[fpWords]uint64) {
	for i := range dst {
		dst[i] = m.fps[i].Load()
	}
}

// resetFps reinstalls the fingerprints for a compact identity-permutation
// leaf image (writeLeafImage layout: log i holds keys[i]) and zeroes the
// tail. Callers hold the leaf lock/SplitBit, or own the meta exclusively
// (split building a new leaf, recovery).
func (m *leafMeta) resetFps(keys []uint64) {
	var words [fpWords]uint64
	for i, k := range keys {
		words[i>>3] |= uint64(fpHash(k)) << (uint(i&7) * 8)
	}
	for i := range m.fps {
		m.fps[i].Store(words[i])
	}
}

// probeLeaf is Find's fingerprint-filtered membership test: scan the
// snapshot's entries comparing DRAM fingerprint bytes and read the full key
// from the arena only on a match. Returns the slot rank holding key. Misses
// cost zero arena reads; hits cost one (plus ~0.4% false-positive rejects
// at 64 entries). The caller revalidates the leaf version afterwards, which
// subsumes every split/compaction race, exactly as for searchLeaf.
func (t *Tree) probeLeaf(m *leafMeta, s *slotArray, key uint64) (int, bool) {
	fp := fpHash(key)
	var words [fpWords]uint64
	m.loadFps(&words)
	for i := 0; i < s.n; i++ {
		e := int(s.idx[i])
		if byte(words[e>>3]>>(uint(e&7)*8)) != fp {
			continue
		}
		if t.arena.Read8(kvEntryOff(m.off, e)) == key {
			return i, true
		}
	}
	return 0, false
}
