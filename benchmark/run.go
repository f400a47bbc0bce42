package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rntree/client"
	"rntree/internal/forest"
)

// versions is the benchmark's own model of the key space: for every key,
// the highest version whose write was issued and the highest whose write
// was acknowledged. A key has one writer (ownedKey), so both only grow, and
// a reader that loads acked before its call and issued after it knows the
// range the value it got must fall in — every read is checked without a
// lock and without serialising the workload.
type versions struct {
	issued, acked []atomic.Uint32
}

func newVersions(n int) *versions {
	v := &versions{issued: make([]atomic.Uint32, n), acked: make([]atomic.Uint32, n)}
	for i := range v.issued {
		v.issued[i].Store(1) // the preload wrote version 1
		v.acked[i].Store(1)
	}
	return v
}

// span is one traced call: the layer boundary it crossed, when, for which
// request, and under which other span.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = a root
	Req    int32  `json:"request"`
}

// worker is one closed-loop caller: it issues its stream one request at a
// time and waits for each reply.
type worker struct {
	id  int
	in  *inputs
	ver *versions
	cl  *client.Client // served workloads
	f   *forest.Forest // tree workload

	ops       []op
	wrap      bool // key-space-only streams loop; fresh-key streams are caps
	pos       int
	exhausted bool
	endedAt   int64

	rec       *recorder
	attempted int
	errs      int // calls that returned an error (overload, timeout, server error)
	wrong     int // reads that returned a missing, stale or corrupt value
	firstErr  error

	// fresh[k] counts this worker's fresh writes of kind k so far;
	// freshFailed lists the ones that were not acknowledged, so the crash
	// check does not expect them.
	fresh       [numOpKinds]uint32
	freshFailed map[op]bool

	keyBuf, fieldBuf, valBuf []byte

	spans []span
}

func newWorker(id int, in *inputs, ver *versions, recCap int) *worker {
	return &worker{
		id: id, in: in, ver: ver,
		ops:         in.streams[id],
		wrap:        !in.wl.freshWrites(),
		rec:         newRecorder(recCap),
		freshFailed: map[op]bool{},
		keyBuf:      make([]byte, keyLen),
		fieldBuf:    []byte("f0"),
		valBuf:      make([]byte, maxValSize),
	}
}

func (wk *worker) fail(err error) {
	wk.errs++
	if wk.firstErr == nil {
		wk.firstErr = err
	}
}

// hashField names the object and field the ord-th fresh HSET of this worker
// goes to, and the id its value carries.
func (wk *worker) hashField(ord uint32) (name, field []byte, id uint64) {
	putHexKey(wk.keyBuf, wk.in.freshID(nsObject, wk.id, ord/fieldsPerObject))
	wk.fieldBuf[1] = byte('0' + ord%fieldsPerObject)
	return wk.keyBuf, wk.fieldBuf, wk.in.freshID(nsField, wk.id, ord)
}

// served issues one request through the client and checks the reply. The
// clock brackets the client call alone; building the request and checking
// the answer are the generator's time, not the system's.
func (wk *worker) served(o op, base time.Time) (t0, t1 int64) {
	in, size := wk.in, wk.in.wl.valSize
	kind, arg := o.kind(), o.arg()
	wk.attempted++
	var err error
	switch kind {
	case opRead:
		key := in.key(arg)
		lo := wk.ver.acked[arg].Load()
		t0 = int64(time.Since(base))
		val, gerr := wk.cl.Get(key)
		t1 = int64(time.Since(base))
		if err = gerr; err == nil {
			v, ok := in.checkValue(val, uint64(arg), size)
			if !ok || v < lo || v > wk.ver.issued[arg].Load() {
				wk.wrong++
			}
		}
	case opWrite:
		key := in.key(arg)
		v := wk.ver.issued[arg].Add(1)
		val := in.fillValue(wk.valBuf, uint64(arg), v, size)
		t0 = int64(time.Since(base))
		err = wk.cl.Put(key, val)
		t1 = int64(time.Since(base))
		if err == nil {
			wk.ver.acked[arg].Store(v)
		}
	case opPutFresh, opPutDurable:
		ns := nsFlat
		if kind == opPutDurable {
			ns = nsDurable
		}
		id := in.freshID(ns, wk.id, arg)
		putHexKey(wk.keyBuf, id)
		val := in.fillValue(wk.valBuf, id, 1, size)
		t0 = int64(time.Since(base))
		if kind == opPutDurable {
			err = wk.cl.PutDurable(wk.keyBuf, val)
		} else {
			err = wk.cl.Put(wk.keyBuf, val)
		}
		t1 = int64(time.Since(base))
		wk.fresh[kind]++
	case opGetOwn:
		id := in.freshID(nsFlat, wk.id, arg)
		putHexKey(wk.keyBuf, id)
		t0 = int64(time.Since(base))
		val, gerr := wk.cl.Get(wk.keyBuf)
		t1 = int64(time.Since(base))
		if err = gerr; err == nil && !wk.freshFailed[mkOp(opPutFresh, arg)] {
			if v, ok := in.checkValue(val, id, size); !ok || v != 1 {
				wk.wrong++
			}
		}
	case opHSet:
		name, field, id := wk.hashField(arg)
		val := in.fillValue(wk.valBuf, id, 1, size)
		t0 = int64(time.Since(base))
		err = wk.cl.HSet(name, field, val)
		t1 = int64(time.Since(base))
		wk.fresh[kind]++
	case opHGet:
		name, field, id := wk.hashField(arg)
		t0 = int64(time.Since(base))
		val, gerr := wk.cl.HGet(name, field)
		t1 = int64(time.Since(base))
		if err = gerr; err == nil && !wk.freshFailed[mkOp(opHSet, arg)] {
			if v, ok := in.checkValue(val, id, size); !ok || v != 1 {
				wk.wrong++
			}
		}
	}
	if err != nil {
		wk.fail(fmt.Errorf("%s: %w", opNames[kind], err))
		if kind.isWrite() && kind != opWrite {
			wk.freshFailed[o] = true
		}
	}
	return t0, t1
}

// pacer is the one thing the workers share: how many operations the pass
// has completed. The window is a fixed number of operations, not a fixed
// time — counters that grow with work done (bytes allocated, lines flushed,
// arena growth) then cover the same work in every run and repeat closely,
// and the time it took is what is measured. deadline only bounds a run on a
// host far slower than the reference.
type pacer struct {
	done atomic.Int64
	_    [56]byte // stop and tracing are read every op; keep them off done's cache line
	stop atomic.Bool
	// tracing says whether served calls are being kept as spans right now.
	tracing atomic.Bool

	warmOps, windowOps int64
	deadline           int64         // ns since base
	warm               chan struct{} // closed by the worker that completes the warm-up: the window opens

	// A traced pass cuts the window into traceSlices slices of equal
	// operation count and records spans in the slices tracedSlice names.
	// sliceAt[i] is when slice i began, sliceAt[traceSlices] when the last
	// one ended, ns since base; each is written by the one worker whose
	// operation crossed that boundary.
	trace   bool
	sliceAt [traceSlices + 1]int64
}

// traceSlices and tracedSlice lay the traced and untraced slices out as
// U T T U U T T U: both kinds have the same mean position in the window, so
// a throughput that drifts steadily as the store fills cancels out of their
// ratio, which the two halves of a window would not do.
const traceSlices = 8

func tracedSlice(i int64) bool { return i%4 == 1 || i%4 == 2 }

// slice is the trace slice the done-th operation of the pass falls in;
// negative inside the warm-up, traceSlices once the window is complete.
func (pc *pacer) slice(done int64) int64 {
	if done < pc.warmOps {
		return -1
	}
	return min((done-pc.warmOps)*traceSlices/pc.windowOps, traceSlices)
}

// advance records n completed operations and reports whether the worker
// should stop.
func (pc *pacer) advance(n, now int64) bool {
	after := pc.done.Add(n)
	before := after - n
	if before < pc.warmOps && after >= pc.warmOps {
		close(pc.warm)
	}
	if after >= pc.warmOps+pc.windowOps {
		pc.stop.Store(true)
	}
	if sb, sa := pc.slice(before), pc.slice(after); pc.trace && sa != sb {
		pc.sliceAt[sa] = now
		pc.tracing.Store(tracedSlice(sa) && sa < traceSlices)
	}
	return pc.stop.Load() || now >= pc.deadline
}

// traceOverhead is the throughput of the window's traced slices over that
// of its untraced ones; the slices hold equal operation counts, so it is the
// untraced slices' time over the traced slices'. 0 if the pass was cut short.
func (pc *pacer) traceOverhead() (ratio, tracedSec, untracedSec float64) {
	if !pc.trace || pc.sliceAt[traceSlices] == 0 {
		return 0, 0, 0
	}
	for i := int64(0); i < traceSlices; i++ {
		d := float64(pc.sliceAt[i+1]-pc.sliceAt[i]) / 1e9
		if tracedSlice(i) {
			tracedSec += d
		} else {
			untracedSec += d
		}
	}
	return untracedSec / tracedSec, tracedSec, untracedSec
}

// runServed is the served worker's loop: issue, wait, record, until the
// pass has done its operations or a fresh-key stream runs out.
func (wk *worker) runServed(base time.Time, pc *pacer) {
	for {
		if wk.pos == len(wk.ops) {
			if !wk.wrap {
				wk.exhausted = true
				break
			}
			wk.pos = 0
		}
		o := wk.ops[wk.pos]
		wk.pos++
		t0, t1 := wk.served(o, base)
		wk.rec.add(t1, time.Duration(t1-t0), o.kind())
		if wk.attempted%ladderSampleEvery == 0 && pc.tracing.Load() {
			wk.spans = append(wk.spans, span{Name: "client." + opNames[o.kind()], Start: t0, End: t1})
		}
		if pc.advance(1, t1) {
			break
		}
	}
	wk.endedAt = int64(time.Since(base))
}

// treeOp applies one request to the tree and checks a Find's answer.
func (wk *worker) treeOp(o op) {
	kind, idx := o.kind(), o.arg()
	key := wk.in.treeKeyOf(idx)
	wk.attempted++
	if kind == opRead {
		lo := wk.ver.acked[idx].Load()
		val, ok := wk.f.Find(key)
		gotIdx, v := splitTreeValue(val)
		if !ok || gotIdx != idx || v < lo || v > wk.ver.issued[idx].Load() {
			wk.wrong++
		}
		return
	}
	v := wk.ver.issued[idx].Add(1)
	if err := wk.f.Upsert(key, treeValue(idx, v)); err != nil {
		wk.fail(fmt.Errorf("upsert: %w", err))
		return
	}
	wk.ver.acked[idx].Store(v)
}

// runTree is the tree worker's loop. Reading the clock twice costs about as
// much as a Find, so only every treeSampling-th operation is timed; each
// sample stands for treeSampling completed operations.
func (wk *worker) runTree(base time.Time, pc *pacer) {
	mask := len(wk.ops) - 1 // tree streams are a power of two long
	for i := 0; ; i++ {
		o := wk.ops[i&mask]
		if i%treeSampling != treeSampling-1 {
			wk.treeOp(o)
			continue
		}
		t0 := int64(time.Since(base))
		wk.treeOp(o)
		t1 := int64(time.Since(base))
		wk.rec.add(t1, time.Duration(t1-t0), o.kind())
		if pc.advance(treeSampling, t1) {
			break
		}
	}
	wk.endedAt = int64(time.Since(base))
}

// pass is what driving the workload once produced.
type pass struct {
	workers      []*worker
	from, to     int64 // the measured window, ns since base
	pacer        *pacer
	before       *counters
	after        *counters
	peakRSSMiB   float64
	cutShort     string // why the window holds fewer operations than planned, if it does
	attempted    int
	errs, wrong  int
	firstErr     error
	requestsSeen uint64 // server-side request count over the whole pass
}

// drive runs warm-up and the measured window: every worker in a closed
// loop, counters snapshotted at the window's edges. With trace set on a
// served workload, span recording switches on and off by slices of the
// window, so one run yields an untraced and a traced throughput on the same
// store (the tree pass makes no client calls, so it has no spans to record).
func drive(e *env, in *inputs, ver *versions, trace bool) (*pass, error) {
	wl := in.wl
	nw := wl.workers()
	warmOps, windowOps := wl.warmOps(in.seconds), wl.windowOps(in.seconds)
	perWorker := int(warmOps+windowOps)*3/2/nw + 1024
	if wl.tree {
		perWorker /= treeSampling
	}
	p := &pass{workers: make([]*worker, nw)}
	for i := range p.workers {
		wk := newWorker(i, in, ver, perWorker)
		if wl.tree {
			wk.f = e.forest
		} else {
			wk.cl = e.clients[i/wl.depth]
		}
		p.workers[i] = wk
	}

	var reqBefore uint64
	if e.primary != nil {
		reqBefore = e.primary.srv.Stats().Requests
	}

	base := time.Now()
	pc := &pacer{
		warmOps: warmOps, windowOps: windowOps,
		deadline: int64((warmup(in.seconds) + in.seconds) * slowHostFactor * 1e9),
		warm:     make(chan struct{}),
		trace:    trace && !wl.tree,
	}
	p.pacer = pc
	var wg sync.WaitGroup
	for _, wk := range p.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			if wl.tree {
				wk.runTree(base, pc)
			} else {
				wk.runServed(base, pc)
			}
		}(wk)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	select {
	case <-pc.warm:
		p.before = snapshot(e)
		// The snapshot is where the window really starts: counters and
		// samples must cover the same interval.
		p.from = int64(time.Since(base))
		<-finished
	case <-finished:
	}
	if p.before == nil {
		return p, fmt.Errorf("the pass stopped inside its warm-up (%d of %d operations): host far slower than the reference, or a stream ran out", pc.done.Load(), warmOps)
	}
	p.after = snapshot(e)
	p.peakRSSMiB = peakRSSMiB()

	p.to = int64(time.Since(base))
	for _, wk := range p.workers {
		p.attempted += wk.attempted
		p.errs += wk.errs
		p.wrong += wk.wrong
		if p.firstErr == nil {
			p.firstErr = wk.firstErr
		}
		if wk.exhausted {
			p.cutShort = "a fresh-key stream ran out (workers very unevenly served)"
			p.to = min(p.to, wk.endedAt)
		}
	}
	if !pc.stop.Load() && p.cutShort == "" {
		p.cutShort = fmt.Sprintf("the %.2fx time limit came first (host slower than the reference)", slowHostFactor)
	}
	if e.primary != nil {
		p.requestsSeen = e.primary.srv.Stats().Requests - reqBefore
	}
	return p, nil
}

// recorders lists the pass's sample recorders.
func (p *pass) recorders() []*recorder {
	rs := make([]*recorder, len(p.workers))
	for i, wk := range p.workers {
		rs[i] = wk.rec
	}
	return rs
}
