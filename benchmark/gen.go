package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// All benchmark inputs come from here and from nothing else: key tables,
// value bytes, op kinds and zipf ranks are functions of (workload, seed,
// scale), generated before any clock starts. The program under test never
// sees the seed, only these inputs.

// opKind is what one generated request asks for.
type opKind uint8

const (
	opRead       opKind = iota // Find / GET of a key-space key
	opWrite                    // Upsert / PUT overwriting a key-space key the worker owns
	opPutFresh                 // PUT of a key nobody has used
	opGetOwn                   // GET of the arg-th key this worker PUT earlier
	opPutDurable               // PutDurable of a fresh key (acked by the replica too)
	opHSet                     // HSET of a fresh field (arg/4 = object, arg%4 = field)
	opHGet                     // HGET of the arg-th field this worker HSET earlier
	numOpKinds
)

var opNames = [numOpKinds]string{"read", "write", "put_fresh", "get_own", "put_durable", "hset", "hget"}

// isWrite classes a kind for the read_*/write_* latency metrics.
func (k opKind) isWrite() bool {
	return k == opWrite || k == opPutFresh || k == opPutDurable || k == opHSet
}

// op packs a kind (top 4 bits) and its argument (low 28 bits): a key-space
// index, or the ordinal of an earlier fresh write of the same worker.
type op uint32

const opArgBits = 28

func mkOp(k opKind, arg uint32) op { return op(uint32(k)<<opArgBits | arg) }
func (o op) kind() opKind          { return opKind(o >> opArgBits) }
func (o op) arg() uint32           { return uint32(o) & (1<<opArgBits - 1) }

// rng is splitmix64: tiny, fast, and owned by the benchmark so a toolchain
// or library change can never alter the inputs a seed produces.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by Gray et
// al.'s closed form ("Quickly generating billion-record synthetic
// databases"), the generator YCSB uses. theta == 0 is uniform.
type zipf struct {
	n                 uint64
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + math.Pow(0.5, theta)
	z.half = zeta2
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) uint64 {
	if z.theta == 0 {
		return r.next() % z.n
	}
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

const (
	keyLen     = 16 // served keys: 16 hex digits of a mixed 64-bit id
	valHdr     = 16 // id(8) version(4) size(4): what makes every read checkable
	fillerSpan = 64 // value bodies start at one of this many offsets into the filler
)

// id namespaces, so no two classes of key or value can collide.
const (
	nsKeySpace = 1 // preloaded key-space keys
	nsFlat     = 2 // opPutFresh keys
	nsDurable  = 3 // opPutDurable keys
	nsObject   = 4 // hash object names (ordinal/fieldsPerObject)
	nsField    = 5 // hash field values
)

// fieldsPerObject is how many fresh fields go to one hash before the next
// hash is started: every HSET grows an object and commits a full intent.
const fieldsPerObject = 4

// inputs is everything one workload run feeds the program.
type inputs struct {
	wl   *workload
	seed uint64

	seconds float64 // the measured window the streams were sized for

	// nkeys key-space keys. tree_ycsb_a: treeKeyOf(i) is key i, and
	// treeKeys/treeIndex list the keys ascending (BulkLoad's order) with
	// the index each came from. Served workloads: keyBytes holds keyLen
	// bytes per key.
	nkeys     int
	treeKeys  []uint64
	treeIndex []uint32
	keyBytes  []byte

	// streams[w] is worker w's request sequence. The last two are not
	// served workers: streams[nworkers] feeds the traced ladder and
	// streams[nworkers+1] the depth-1 probe, so neither reuses a fresh key
	// a served worker owns. Key-space-only streams wrap around; streams
	// with fresh writes are caps (a worker that exhausts its stream stops).
	streams [][]op

	filler []byte
	digest string
}

func (in *inputs) nworkers() int { return len(in.streams) - 2 }

// freshID is the 64-bit id behind a fresh key: a bijective mix of
// (namespace, worker, ordinal), so distinct triples never share a key.
func (in *inputs) freshID(ns, worker int, ordinal uint32) uint64 {
	return mix64(in.seed ^ uint64(ns)<<60 ^ uint64(worker)<<40 ^ uint64(ordinal))
}

// treeKeyOf returns key-space key i of the tree workload: scrambled so hot
// zipf ranks land in different leaves (§6.3.1 of the paper). Every step is
// a bijection on 62 bits, so distinct indexes never share a key; bit 62 is
// then set, which keeps keys clear of 0 and of the tree's reserved maximum.
func (in *inputs) treeKeyOf(i uint32) uint64 {
	const m62 = 1<<62 - 1
	x := (uint64(i) + in.seed) & m62
	x = x * 0x9e3779b97f4a7c15 & m62
	x ^= x >> 31
	x = x * 0xbf58476d1ce4e5b9 & m62
	x ^= x >> 29
	return x | 1<<62
}

const hexDigits = "0123456789abcdef"

// putHexKey writes id as keyLen hex digits into dst.
func putHexKey(dst []byte, id uint64) {
	for i := keyLen - 1; i >= 0; i-- {
		dst[i] = hexDigits[id&15]
		id >>= 4
	}
}

// key returns served key-space key i (aliases the table; do not modify).
func (in *inputs) key(i uint32) []byte {
	return in.keyBytes[int(i)*keyLen : int(i+1)*keyLen]
}

// fillValue builds the value for (id, version) into buf[:size] and returns
// it. The header makes a read checkable on its own — which key, which
// version — and the body is a slice of the seeded filler whose offset also
// depends on both, so a value spliced from two versions does not verify.
func (in *inputs) fillValue(buf []byte, id uint64, version uint32, size int) []byte {
	v := buf[:size]
	binary.LittleEndian.PutUint64(v[0:], id)
	binary.LittleEndian.PutUint32(v[8:], version)
	binary.LittleEndian.PutUint32(v[12:], uint32(size))
	off := (id*7 + uint64(version)) % fillerSpan
	copy(v[valHdr:], in.filler[off:])
	return v
}

// checkValue verifies got is the value fillValue builds for id at some
// version, and returns that version.
func (in *inputs) checkValue(got []byte, id uint64, size int) (uint32, bool) {
	if len(got) != size || size < valHdr {
		return 0, false
	}
	if binary.LittleEndian.Uint64(got[0:]) != id || binary.LittleEndian.Uint32(got[12:]) != uint32(size) {
		return 0, false
	}
	version := binary.LittleEndian.Uint32(got[8:])
	off := (id*7 + uint64(version)) % fillerSpan
	body := got[valHdr:]
	if string(body) != string(in.filler[off:off+uint64(len(body))]) {
		return 0, false
	}
	return version, true
}

// treeValue packs (key index, version) into the 8-byte value of the tree
// workload; version 0 is never written, so 0 never reads as valid.
func treeValue(idx, version uint32) uint64 { return uint64(version)<<24 | uint64(idx) }

func splitTreeValue(v uint64) (idx, version uint32) { return uint32(v & (1<<24 - 1)), uint32(v >> 24) }

// ownedKey maps a drawn key index to the nearest one worker w may write:
// every key-space key has exactly one writer (index mod workers), which is
// what lets a reader bound the version it must see without a lock.
func ownedKey(k uint32, w, workers, nkeys int) uint32 {
	k = k - k%uint32(workers) + uint32(w)
	if int(k) >= nkeys {
		k -= uint32(workers)
	}
	return k
}

// generate builds the inputs of one run. A set-up-only child process needs
// the key space but no requests, and passes streams false.
func generate(wl *workload, seed uint64, scale float64, seconds float64, streams bool) *inputs {
	in := &inputs{wl: wl, seed: mix64(seed ^ hashName(wl.name)), seconds: seconds}
	r := &rng{s: in.seed}

	in.filler = make([]byte, maxValSize+fillerSpan)
	for i := 0; i < len(in.filler); i += 8 {
		binary.LittleEndian.PutUint64(in.filler[i:], r.next())
	}

	in.nkeys = wl.scaledKeys(scale)
	switch {
	case wl.tree:
		in.treeIndex = make([]uint32, in.nkeys)
		for i := range in.treeIndex {
			in.treeIndex[i] = uint32(i)
		}
		sort.Slice(in.treeIndex, func(a, b int) bool {
			return in.treeKeyOf(in.treeIndex[a]) < in.treeKeyOf(in.treeIndex[b])
		})
		in.treeKeys = make([]uint64, in.nkeys)
		for i, idx := range in.treeIndex {
			in.treeKeys[i] = in.treeKeyOf(idx)
		}
	case in.nkeys > 0:
		in.keyBytes = make([]byte, in.nkeys*keyLen)
		for i := 0; i < in.nkeys; i++ {
			putHexKey(in.keyBytes[i*keyLen:], in.freshID(nsKeySpace, 0, uint32(i)))
		}
	}

	if !streams {
		return in
	}
	workers := wl.workers()
	var zf *zipf
	if in.nkeys > 0 {
		zf = newZipf(uint64(in.nkeys), wl.zipf)
	}
	// A rank is scattered over the key table by an odd multiplier modulo
	// the table size, so the hottest ranks are not neighbours.
	scatter := func(rank uint64) uint32 { return uint32(rank * 0x9e3779b1 % uint64(in.nkeys)) }

	in.streams = make([][]op, workers+2)
	for w := range in.streams {
		n := wl.streamLen(seconds)
		switch w {
		case workers:
			n = wl.ladderLen(seconds)
		case workers + 1:
			n = probeOps
		}
		s := make([]op, n)
		// fresh counts this stream's earlier fresh writes per kind, so a
		// read-back op can only name a write that precedes it.
		var fresh [numOpKinds]uint32
		for i := range s {
			kind := wl.mix[len(wl.mix)-1].kind
			u := r.float()
			for _, m := range wl.mix {
				if u < m.share {
					kind = m.kind
					break
				}
				u -= m.share
			}
			if w == workers+1 {
				kind = wl.probeKind()
			}
			switch kind {
			case opRead:
				s[i] = mkOp(kind, scatter(zf.rank(r)))
			case opWrite:
				// The ladder and the probe are not key-space owners;
				// they run after the served workers have stopped, so
				// they borrow worker 0's keys.
				s[i] = mkOp(kind, ownedKey(scatter(zf.rank(r)), w%workers, workers, in.nkeys))
			case opGetOwn, opHGet:
				src := opPutFresh
				if kind == opHGet {
					src = opHSet
				}
				if fresh[src] == 0 {
					s[i] = mkOp(src, 0)
					fresh[src] = 1
				} else {
					s[i] = mkOp(kind, uint32(r.next()%uint64(fresh[src])))
				}
			default: // fresh writes
				s[i] = mkOp(kind, fresh[kind])
				fresh[kind]++
			}
		}
		in.streams[w] = s
	}

	in.digest = in.computeDigest()
	return in
}

func hashName(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// computeDigest folds every generated input into one FNV-1a style word
// (word-wise, so 40 MB of ops cost milliseconds): two runs fed the same
// bytes print the same digest, and nothing else does.
func (in *inputs) computeDigest() string {
	h := uint64(14695981039346656037)
	add := func(x uint64) { h = (h ^ x) * 1099511628211 }
	add(uint64(in.nkeys))
	for _, k := range in.treeKeys {
		add(k)
	}
	for i := 0; i+8 <= len(in.keyBytes); i += 8 {
		add(binary.LittleEndian.Uint64(in.keyBytes[i:]))
	}
	for i := 0; i+8 <= len(in.filler); i += 8 {
		add(binary.LittleEndian.Uint64(in.filler[i:]))
	}
	for _, s := range in.streams {
		add(uint64(len(s)))
		for _, o := range s {
			add(uint64(o))
		}
	}
	return fmt.Sprintf("%016x", h)
}
