package main

import (
	"time"

	"rntree/internal/pmem"
	"rntree/internal/server"
	"rntree/kv"
)

// Fixed harness conditions, identical for every workload and every commit
// measured (README.md, "Harness conditions", says why each one is what it
// is).
const (
	harnessProcs = 2  // GOMAXPROCS: server(s) and load generator share them
	segments     = 5  // the window is cut into this many equal-op segments
	treeSampling = 16 // tree_ycsb_a times every 16th op (a clock pair costs as much as a Find)

	// gatedTail is the tail percentile the end-to-end metrics carry. p99 sits
	// where repl_obj_mix's write latencies climb from 3 ms to the replica's
	// 20 ms ack timer, and moved by up to 26 % (inter-quartile, ten seeds)
	// between identical runs, past any bound BENCHMARK.json may state; p95
	// repeats. p99 is printed, and reported ungated by the traced run.
	gatedTail = 0.95

	ladderSampleEvery = 64    // the traced ladder replays 1 request in 64
	ladderMaxOps      = 65536 // ...up to this many
	probeOps          = 2000  // depth-1 PING and PUT probes after the window
	setupRepeats      = 3     // setup_s is the median of this many set-ups...
	cheapSetupRepeats = 9     // ...or of this many, when one takes under cheapSetup seconds
	cheapSetup        = 0.25

	maxValSize = 1024
)

// kvOptions is the one store geometry every served workload runs on;
// arenaSize is the only thing sized per workload.
func kvOptions(arenaSize uint64) kv.Options {
	return kv.Options{
		Partitions:    4,
		Shards:        1,
		DualSlotArray: true,
		ChunkSize:     1 << 20,
		MaxSegments:   1,
		ArenaSize:     arenaSize,
	}
}

// serverConfig is the one serving configuration: workloads differ only in
// traffic. Greedy group commit is the mode batch.go recommends; 65536 is
// rnserved's default cache size.
func serverConfig() server.Config {
	return server.Config{
		Batch: server.BatchConfig{Puts: true, MaxDelay: -1},
		Cache: server.CacheConfig{Enable: true, MaxEntries: 65536},
	}
}

type mixEntry struct {
	kind  opKind
	share float64
}

// workload is one traffic shape. Everything the program's behaviour depends
// on is a field here; nothing else differs between workloads.
type workload struct {
	name, why string

	tree       bool // direct calls into the tree, no kv/server/wire/client
	repl, objs bool // primary+replica pair; typed-object layer attached

	latency pmem.LatencyModel
	conns   int // client connections (tree: threads)
	depth   int // goroutines sharing each connection

	keys    int     // preloaded key-space size at scale 1
	zipf    float64 // key popularity skew (0 = uniform)
	valSize int     // value bytes of every write (and of the preload)
	mix     []mixEntry

	// refOpsPerSec is this workload's throughput on the reference 2-vCPU
	// host. It sizes things that must exist before the clock starts — the
	// fresh-key streams, the arenas under them, the recorder slices — and
	// nothing that is measured.
	refOpsPerSec float64
}

var optaneReads = func() pmem.LatencyModel {
	m := pmem.ProfileOptaneDIMM
	m.ReadPerLine = 300 * time.Nanosecond
	return m
}()

var workloads = []*workload{
	{
		name: "tree_ycsb_a",
		why:  "the paper's own experiment (YCSB-A, zipf 0.8, 2 threads on one RNTree+DS): core/htm/pmem do all the work and kv/server/wire/client none, so a serving-layer change must not move it",
		tree: true, latency: pmem.ProfileNVDIMM, conns: 2, depth: 1,
		keys: 1 << 20, zipf: 0.8, valSize: 8,
		mix:          []mixEntry{{opRead, 0.5}, {opWrite, 0.5}},
		refOpsPerSec: 620e3,
	},
	{
		name:    "put_pipelined",
		why:     "2 conns x depth 16, fresh keys, 1 KiB values: group commit, value-log streaming and per-partition drain bandwidth carry the load; tree work is a few percent",
		latency: pmem.ProfileOptaneDIMM, conns: 2, depth: 16,
		valSize:      1024,
		mix:          []mixEntry{{opPutFresh, 0.95}, {opGetOwn, 0.05}},
		refOpsPerSec: 58e3,
	},
	{
		name:    "put_unpipelined",
		why:     "2 conns x depth 1, 128 B values: every commit is a batch of one, so wake-ups, syscalls, wire and one fence dominate; a batching change that adds hand-offs loses here",
		latency: pmem.ProfileOptaneDIMM, conns: 2, depth: 1,
		valSize:      128,
		mix:          []mixEntry{{opPutFresh, 0.95}, {opGetOwn, 0.05}},
		refOpsPerSec: 25e3,
	},
	{
		name:    "get_hot",
		why:     "95/5 GET/PUT, zipf 0.8 over 32 Ki keys that fit the 64 Ki-entry cache twice: cache lookup, epoch-validated fills, wire and client dominate; tree and NVM reads are skipped on hits",
		latency: optaneReads, conns: 2, depth: 8,
		keys: 32 << 10, zipf: 0.8, valSize: 512,
		mix:          []mixEntry{{opRead, 0.95}, {opWrite, 0.05}},
		refOpsPerSec: 125e3,
	},
	{
		name:    "get_cold",
		why:     "95/5 GET/PUT, uniform over 1 Mi keys (16x the cache): every GET pays forest route, core Find, and a value-log read at NVM read latency, plus cache miss and admission overhead",
		latency: optaneReads, conns: 2, depth: 8,
		keys: 1 << 20, zipf: 0, valSize: 512,
		mix:          []mixEntry{{opRead, 0.95}, {opWrite, 0.05}},
		refOpsPerSec: 85e3,
	},
	{
		name: "repl_obj_mix",
		why:  "primary+replica with typed objects: 40% PutDurable, 30% HSet of a fresh field, 30% HGet: the wait-for-replica ack and the composite-intent commit, the two write routes no other workload touches",
		repl: true, objs: true,
		latency: pmem.ProfileOptaneDIMM, conns: 2, depth: 8,
		valSize:      128,
		mix:          []mixEntry{{opPutDurable, 0.4}, {opHSet, 0.3}, {opHGet, 0.3}},
		refOpsPerSec: 17e3,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) workers() int { return w.conns * w.depth }

// scaledKeys is the key-space size at the given scale, kept a multiple of
// the worker count so every worker owns the same number of keys.
func (w *workload) scaledKeys(scale float64) int {
	if w.keys == 0 {
		return 0
	}
	n := int(float64(w.keys) * scale)
	n -= n % w.workers()
	return max(n, 4*w.workers())
}

// freshWrites reports whether the mix writes never-used keys, which makes
// every stream a cap instead of a loop.
func (w *workload) freshWrites() bool {
	for _, m := range w.mix {
		if m.kind == opPutFresh || m.kind == opPutDurable || m.kind == opHSet {
			return true
		}
	}
	return false
}

// warmup is the discarded lead-in before the measured window.
func warmup(seconds float64) float64 { return max(seconds/8, 0.2) }

// warmOps and windowOps are the pass's fixed operation counts: what the
// reference host completes in the warm-up and in `seconds`.
func (w *workload) warmOps(seconds float64) int64 {
	return int64(w.refOpsPerSec * warmup(seconds))
}

func (w *workload) windowOps(seconds float64) int64 {
	return int64(w.refOpsPerSec * seconds)
}

const (
	// slowHostFactor bounds a pass in time: it stops after this multiple of
	// the planned warm-up plus window even if the operations are not done.
	slowHostFactor = 1.5
	// streamSlack is how much more than its even share of the pass's
	// operations one worker's fresh-key stream holds.
	streamSlack = 1.25
)

// streamLen is the length of one served worker's request stream. Streams
// that only touch the key space wrap around, so they only have to be long
// enough not to repeat soon; fresh-key streams must outlast the pass.
func (w *workload) streamLen(seconds float64) int {
	if !w.freshWrites() {
		if w.tree {
			return 1 << 21
		}
		return 1 << 17
	}
	return int(float64(w.warmOps(seconds)+w.windowOps(seconds))*streamSlack)/w.workers() + 64
}

// ladderLen is the length of the ladder's 1-in-64 sample.
func (w *workload) ladderLen(seconds float64) int {
	n := int(w.refOpsPerSec*seconds) / ladderSampleEvery
	return min(max(n, 256), ladderMaxOps)
}

// probeKind is the write the depth-1 probe issues.
func (w *workload) probeKind() opKind {
	if w.keys > 0 {
		return opWrite
	}
	return opPutFresh
}

// bytesPerWrite is what one write of kind k adds to the arenas, for sizing
// only: the value-log record rounded to lines plus the tree's share (about a
// leaf line per key at half fill). HSet appends an element, a rewritten
// header and an intent.
func (w *workload) bytesPerWrite(k opKind) float64 {
	rec := float64((24+keyLen+w.valSize+63)/64*64 + 64)
	if k == opHSet {
		return 4 * rec
	}
	return rec
}

// arenaSize sizes one store from the workload's shape alone (so a set-up
// child and the measuring process agree without sharing streams): the
// preloaded key space plus every write the pass, the ladder and the probe
// will issue, at 70 % full. The harness asserts that no arena grew.
func (w *workload) arenaSize(in *inputs) uint64 {
	if w.tree {
		// Upserts append 16-byte log entries, but splits compact leaves and
		// freed leaves are reused, so the tree stays near 50 B a key; 160
		// leaves it under half full.
		return (uint64(in.nkeys)*160 + 8<<20 + 1<<20 - 1) &^ (1<<20 - 1)
	}
	bytes := float64(in.nkeys) * w.bytesPerWrite(opWrite)
	ops := float64(w.warmOps(in.seconds)+w.windowOps(in.seconds)) + float64(w.ladderLen(in.seconds)+probeOps)
	for _, m := range w.mix {
		if m.kind.isWrite() {
			bytes += ops * m.share * w.bytesPerWrite(m.kind)
		}
	}
	// 70 %, not 75: hash skew between the partitions is a few percent.
	size := uint64(bytes/0.7) + 8<<20
	return (size + 1<<20 - 1) &^ (1<<20 - 1)
}
