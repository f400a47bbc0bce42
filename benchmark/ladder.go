package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rntree/internal/core"
	"rntree/internal/forest"
	"rntree/internal/htm"
	"rntree/internal/pmem"
	"rntree/internal/tree"
	"rntree/internal/wire"
	"rntree/kv"
)

// The traced ladder. The benchmark cannot put spans inside the program, so
// it attributes a request's time from outside: it replays a 1-in-64 sample
// of the workload's requests single-threaded, and for each one calls down
// the stack one layer at a time — wire codec, kv (or obj), forest, core
// tree, one HTM transaction, one persist — timing every call as a span.
// Each rung contains the rungs below it, so a layer's own time is its rung
// minus the rung below minus the modeled NVM stall the two do not share.
// What the ladder cannot see is queueing: it is an unloaded request.

// ladder collects spans and per-rung durations.
type ladder struct {
	base    time.Time
	clockNs float64 // what reading the clock twice costs; subtracted from every rung
	spans   []span
	rungs   map[string][]int32

	// Exact single-caller counts (they repeat from run to run).
	putPersists, putLines, puts          uint64
	hsetPersists, hsets                  uint64
	upsertPersists, upserts              uint64
	wireBytes, wireOps                   uint64
	decodeAllocs                         float64
	coreDepth                            int
	persist1, persist17, flushCPUPerLine float64
}

func newLadder() *ladder {
	l := &ladder{base: time.Now(), rungs: map[string][]int32{}}
	// Calibrate the clock: the median of back-to-back pairs.
	pairs := make([]int32, 2001)
	for i := range pairs {
		t0 := time.Since(l.base)
		t1 := time.Since(l.base)
		pairs[i] = int32(t1 - t0)
	}
	slices.Sort(pairs)
	l.clockNs = float64(pairs[len(pairs)/2])
	return l
}

// call times fn as one span under parent for request req.
func (l *ladder) call(name string, req, parent int32, fn func()) {
	t0 := int64(time.Since(l.base))
	fn()
	t1 := int64(time.Since(l.base))
	l.spans = append(l.spans, span{Name: name, Start: t0, End: t1, ID: int32(len(l.spans) + 1), Parent: parent, Req: req})
	l.rungs[name] = append(l.rungs[name], int32(t1-t0))
}

// open starts a request's root span and returns its id; close ends it.
func (l *ladder) open(req int32) int32 {
	l.spans = append(l.spans, span{Name: "ladder.request", Start: int64(time.Since(l.base)), ID: int32(len(l.spans) + 1), Req: req})
	return int32(len(l.spans))
}

func (l *ladder) close(root int32) { l.spans[root-1].End = int64(time.Since(l.base)) }

// ns is a rung's median duration net of the clock.
func (l *ladder) ns(name string) float64 {
	d := l.rungs[name]
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return max(float64(s[len(s)/2])-l.clockNs, 0)
}

func arenaTraffic(as []*pmem.Arena) (persists, lines uint64) {
	for _, a := range as {
		s := a.Stats()
		persists += s.Persists
		lines += s.LinesFlushed
	}
	return
}

// recordLines is how many cache lines one value-log record spans.
func recordLines(valSize int) uint64 { return uint64(24+keyLen+valSize+63) / 64 }

// lowerRungs are the instances the forest, core, htm and pmem rungs run on:
// fresh, built with the workload's options and holding the workload's keys,
// one per rung so that no rung finds its lines warmed by the rung above.
type lowerRungs struct {
	forest  *forest.Forest // forest.find / forest.upsert
	trees   *forest.Forest // core.find / core.upsert go to its partitions' trees directly
	region  *htm.Region
	scratch *pmem.Arena
}

const scratchSize = 1 << 20

// newScratch is a bare arena for the htm and pmem rungs: no allocator, so
// every line past the root is theirs to write.
func newScratch(lat pmem.LatencyModel) *pmem.Arena {
	return pmem.New(pmem.Config{Size: scratchSize, VolatileAlloc: true, Latency: lat})
}

func newLowerRungs(lat pmem.LatencyModel, forestRung, coreRung *forest.Forest) *lowerRungs {
	for _, f := range []*forest.Forest{forestRung, coreRung} {
		for i := 0; i < f.Partitions(); i++ {
			f.Partition(i).Arena().SetLatency(lat)
		}
	}
	return &lowerRungs{
		forest:  forestRung,
		trees:   coreRung,
		scratch: newScratch(lat),
		region:  htm.NewRegion(newScratch(pmem.LatencyModel{}), htm.Config{}),
	}
}

// descend drives one key down the rungs below kv. write selects the modify
// path; lines is the size of the persist rung (reads flush nothing).
func (l *ladder) descend(lr *lowerRungs, req, root int32, key, val uint64, write bool, lines uint64) error {
	ct := lr.trees.Partition(lr.trees.PartitionFor(key)).Tree()
	off := pmem.RootSize + key%(scratchSize/2/pmem.LineSize)*pmem.LineSize
	if !write {
		l.call("forest.find", req, root, func() { lr.forest.Find(key) })
		l.call("core.find", req, root, func() { ct.Find(key) })
		l.call("htm.txn.read", req, root, func() { htmRead(lr.region, off) })
		return nil
	}
	var ferr, cerr error
	l.call("forest.upsert", req, root, func() { ferr = lr.forest.Upsert(key, val) })
	before := ct.Arena().Stats().Persists
	l.call("core.upsert", req, root, func() { cerr = ct.Upsert(key, val) })
	l.upsertPersists += ct.Arena().Stats().Persists - before
	l.upserts++
	l.call("htm.txn.update", req, root, func() { htmUpdate(lr.region, off, val) })
	l.call("pmem.persist", req, root, func() { persistLines(lr.scratch, off, lines, val) })
	if ferr != nil || cerr != nil {
		return fmt.Errorf("ladder: upsert on the lower rungs: %v %v", ferr, cerr)
	}
	return nil
}

// htmRead is the smallest read transaction: one line loaded and validated.
// The bodies never abort explicitly, which is the only error Run returns.
func htmRead(r *htm.Region, off uint64) uint64 {
	var v uint64
	_ = r.Run(func(tx *htm.Tx) { v = tx.Load8(off) })
	return v
}

// htmUpdate is the smallest update transaction: load a line, store to it.
func htmUpdate(r *htm.Region, off, val uint64) {
	_ = r.Run(func(tx *htm.Tx) { tx.Store8(off, tx.Load8(off)+val) })
}

// persistLines dirties lines cache lines and executes one persistent
// instruction over them.
func persistLines(a *pmem.Arena, off, lines, val uint64) {
	for i := uint64(0); i < lines; i++ {
		a.Write8(off+i*pmem.LineSize, val)
	}
	a.Persist(off, lines*pmem.LineSize)
}

// micro measures the workload-independent floor of the two simulators: a
// 1-line and a 17-line persist under the workload's latency model, and the
// simulator's own CPU cost per flushed line (the same persists with the
// model zeroed, so all that is left is the copy and the bookkeeping).
func (l *ladder) micro(lat pmem.LatencyModel) {
	const reps = 2000
	timeIt := func(a *pmem.Arena, lines uint64) float64 {
		d := make([]int32, reps)
		for i := range d {
			off := pmem.RootSize + uint64(i%64)*32*pmem.LineSize
			t0 := time.Since(l.base)
			persistLines(a, off, lines, uint64(i))
			d[i] = int32(time.Since(l.base) - t0)
		}
		slices.Sort(d)
		return max(float64(d[reps/2])-l.clockNs, 0)
	}
	priced := newScratch(lat)
	l.persist1 = timeIt(priced, 1)
	l.persist17 = timeIt(priced, 17)
	free := newScratch(pmem.LatencyModel{})
	l.flushCPUPerLine = max(timeIt(free, 17)-timeIt(free, 1), 0) / 16
}

// runTree replays the tree workload's sample.
func (l *ladder) runTree(in *inputs, rec *recovered) error {
	// The forest rung reuses the tree the crash check reopened; the core
	// rung gets a second one opened from the same images.
	second, err := forest.Open(rec.treeImgs, treeOptions(0, pmem.LatencyModel{}))
	if err != nil {
		return fmt.Errorf("ladder: reopen tree: %w", err)
	}
	lr := newLowerRungs(in.wl.latency, rec.forest, second)
	l.coreDepth = lr.trees.Depth()
	version := uint32(1 << 30) // above anything the window wrote
	for i, o := range in.streams[in.nworkers()] {
		req := int32(i + 1)
		root := l.open(req)
		version++
		err := l.descend(lr, req, root, in.treeKeyOf(o.arg()), treeValue(o.arg(), version), o.kind() == opWrite, 1)
		l.close(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// runServed replays a served workload's sample against the store reopened
// from the crash images.
func (l *ladder) runServed(in *inputs, rec *recovered, ver *versions) error {
	wl := in.wl
	for _, a := range rec.st.Arenas() {
		a.SetLatency(wl.latency)
	}
	// The lower rungs get a forest bulk-loaded with the hashes of every key
	// the store holds, built like the store's own index.
	hashes := storeHashes(in, rec.st)
	recs := make([]tree.KV, len(hashes))
	for i, h := range hashes {
		recs[i] = tree.KV{Key: h, Value: uint64(i+1) * pmem.LineSize}
	}
	ko := kvOptions(wl.arenaSize(in))
	var rungs [2]*forest.Forest
	for i := range rungs {
		f, err := forest.BulkLoad(forest.Options{
			Partitions:  ko.Partitions,
			ArenaSize:   ko.ArenaSize / uint64(ko.Partitions),
			MaxSegments: 1,
			Tree:        core.Options{DualSlot: ko.DualSlotArray},
		}, recs)
		if err != nil {
			return fmt.Errorf("ladder: build lower rungs: %w", err)
		}
		rungs[i] = f
	}
	lr := newLowerRungs(wl.latency, rungs[0], rungs[1])
	l.coreDepth = lr.trees.Depth()

	wk := newWorker(in.nworkers(), in, ver, 0)
	arenas := rec.st.Arenas()
	var frame, respFrame []byte
	for i, o := range in.streams[wk.id] {
		req := int32(i + 1)
		kind, arg := o.kind(), o.arg()
		var wreq wire.Request
		var key, val []byte
		wreq.ID = uint64(req)
		switch kind {
		case opRead:
			key = in.key(arg)
			wreq.Op, wreq.Key = wire.OpGet, key
		case opWrite:
			key = in.key(arg)
			val = in.fillValue(wk.valBuf, uint64(arg), ver.issued[arg].Add(1), wl.valSize)
			wreq.Op, wreq.Key, wreq.Val = wire.OpPut, key, val
		case opPutFresh, opPutDurable, opGetOwn:
			ns := nsFlat
			if kind == opPutDurable {
				ns = nsDurable
			}
			id := in.freshID(ns, wk.id, arg)
			putHexKey(wk.keyBuf, id)
			key = wk.keyBuf
			if kind == opGetOwn {
				wreq.Op, wreq.Key = wire.OpGet, key
			} else {
				val = in.fillValue(wk.valBuf, id, 1, wl.valSize)
				wreq.Op, wreq.Key, wreq.Val, wreq.Durable = wire.OpPut, key, val, kind == opPutDurable
			}
		case opHSet, opHGet:
			name, field, id := wk.hashField(arg)
			key = name
			wreq.Op, wreq.Key, wreq.Field = wire.OpHGet, name, field
			if kind == opHSet {
				val = in.fillValue(wk.valBuf, id, 1, wl.valSize)
				wreq.Op, wreq.Val = wire.OpHSet, val
			}
		}

		root := l.open(req)
		var encErr, decErr error
		l.call("wire.encode_req", req, root, func() { frame, encErr = wire.AppendRequest(frame[:0], wreq) })
		l.call("wire.decode_req", req, root, func() { _, decErr = wire.DecodeRequest(frame[4:]) })
		if encErr != nil || decErr != nil {
			return fmt.Errorf("ladder: request codec: %v %v", encErr, decErr)
		}

		resp := wire.Response{ID: wreq.ID, Status: wire.StatusOK, Op: wreq.Op}
		var opErr error
		p0, l0 := arenaTraffic(arenas)
		switch kind {
		case opRead, opGetOwn:
			l.call("kv.get", req, root, func() { resp.Val, opErr = rec.st.Get(key) })
		case opWrite, opPutFresh, opPutDurable:
			l.call("kv.put", req, root, func() { opErr = rec.st.Put(key, val) })
			p1, l1 := arenaTraffic(arenas)
			l.putPersists, l.putLines, l.puts = l.putPersists+p1-p0, l.putLines+l1-l0, l.puts+1
		case opHSet:
			l.call("obj.hset", req, root, func() { opErr = rec.objs.HSet(key, wreq.Field, val) })
			p1, _ := arenaTraffic(arenas)
			l.hsetPersists, l.hsets = l.hsetPersists+p1-p0, l.hsets+1
		case opHGet:
			l.call("obj.hget", req, root, func() { resp.Val, opErr = rec.objs.HGet(key, wreq.Field) })
		}
		if opErr != nil {
			return fmt.Errorf("ladder: %s on the reopened store: %w", opNames[kind], opErr)
		}

		l.call("wire.encode_resp", req, root, func() { respFrame, encErr = wire.AppendResponse(respFrame[:0], resp) })
		l.call("wire.decode_resp", req, root, func() { _, decErr = wire.DecodeResponse(respFrame[4:]) })
		if encErr != nil || decErr != nil {
			return fmt.Errorf("ladder: response codec: %v %v", encErr, decErr)
		}
		l.wireBytes += uint64(len(frame) + len(respFrame))
		l.wireOps++

		err := l.descend(lr, req, root, kv.Hash(key), uint64(req)*pmem.LineSize, kind.isWrite(), recordLines(wl.valSize))
		l.close(root)
		if err != nil {
			return err
		}
	}
	l.decodeAllocs = decodeAllocs(frame)
	return nil
}

// putBatches times kv.PutBatch — the store call the server's group
// committer makes — at the batch size the served pass observed, over as
// many fresh keys as the sample has writes, and returns the nanoseconds per
// record.
func (l *ladder) putBatches(in *inputs, rec *recovered, batch int) float64 {
	wl := in.wl
	id := in.nworkers() + 2 // a writer id no stream uses
	var keys, vals [][]byte
	var perRec []int32
	n := 0
	for _, o := range in.streams[in.nworkers()] {
		if !o.kind().isWrite() {
			continue
		}
		fid := in.freshID(nsFlat, id, uint32(n))
		n++
		k := make([]byte, keyLen)
		putHexKey(k, fid)
		keys = append(keys, k)
		vals = append(vals, in.fillValue(make([]byte, wl.valSize), fid, 1, wl.valSize))
		if len(keys) < batch {
			continue
		}
		t0 := time.Since(l.base)
		errs := rec.st.PutBatch(keys, vals)
		d := time.Since(l.base) - t0
		if errs == nil {
			perRec = append(perRec, int32((float64(d)-l.clockNs)/float64(batch)))
		}
		keys, vals = keys[:0], vals[:0]
	}
	if len(perRec) == 0 {
		return 0
	}
	slices.Sort(perRec)
	return float64(perRec[len(perRec)/2])
}

// storeHashes lists, ascending and without duplicates, the index keys of
// every key-space key the store holds — the forest rungs' starting state.
// Fresh keys are left out: the ladder inserts its own.
func storeHashes(in *inputs, st *kv.Store) []uint64 {
	var hs []uint64
	for i := 0; i < in.nkeys; i++ {
		hs = append(hs, kv.Hash(in.key(uint32(i))))
	}
	if in.nkeys == 0 {
		// Fresh-key workloads: stand in for the keys the window wrote with
		// as many hashes of the same shape.
		n := st.Len()
		for i := 0; i < n; i++ {
			hs = append(hs, mix64(in.seed+uint64(i))&(1<<63-1)|1)
		}
	}
	slices.Sort(hs)
	return slices.Compact(hs)
}

// decodeAllocs is the heap allocations of one DecodeRequest.
func decodeAllocs(frame []byte) float64 {
	if len(frame) < 4 {
		return 0
	}
	const reps = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		_, _ = wire.DecodeRequest(frame[4:]) // the same frame decoded cleanly in the ladder
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / reps
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	ClockNs  float64 `json:"clock_pair_ns"`
	Note     string  `json:"note"`
	Served   []span  `json:"served_client_spans"`
	Ladder   []span  `json:"ladder_spans"`
}

func writeTrace(dir string, wl *workload, seed uint64, l *ladder, served []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+wl.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: wl.name, Seed: seed, ClockNs: l.clockNs,
		Note:   "times are ns since each list's own base; ladder spans of one request share `request`, and their parent is that request's ladder.request span",
		Served: served, Ladder: l.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
