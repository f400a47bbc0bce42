package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"rntree/internal/pmem"
)

// runConfig is what the command line chose for one workload run.
type runConfig struct {
	seed    uint64
	seconds float64
	scale   float64 // key-space sizes are multiplied by this: 1 from the command line, less only in the smoke test
	trace   bool
	outDir  string
	// repeatSetup times further set-ups in child processes for setup_s (the
	// smoke test, which cannot re-execute itself, leaves it off and times
	// only its own set-up).
	repeatSetup bool
}

// check is one correctness condition of a run.
type check struct {
	name   string
	ok     bool
	detail string
}

// report is everything one workload run found.
type report struct {
	wl     *workload
	cfg    runConfig
	lines  []string // the human-readable account, printed before the result line
	checks []check
	vals   map[string]float64
	result result
}

func (r *report) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// runWorkload is one complete run of one workload: generate, set up, warm
// up, measure, check, and (with cfg.trace) trace.
func runWorkload(wl *workload, cfg runConfig, spec *benchSpec) (*report, error) {
	runtime.GOMAXPROCS(harnessProcs)
	r := &report{wl: wl, cfg: cfg, vals: map[string]float64{}}

	genStart := time.Now()
	in := generate(wl, cfg.seed, cfg.scale, cfg.seconds, true)
	arenaSize := wl.arenaSize(in)
	// Without a limit the collector would pace itself against arenas it can
	// never free and effectively never run; see README.md.
	limit := int64(2*arenaSize)*int64(wl.stores()) + 512<<20
	debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(math.MaxInt64)

	r.say("workload %s: %s", wl.name, wl.why)
	r.say("conditions: GOMAXPROCS=%d, closed loop, %d conn(s) x depth %d, window of %d ops (%.3gs at the reference rate) in %d equal-op segments after %d warm-up ops, seed %d, scale %g, trace %v",
		harnessProcs, wl.conns, wl.depth, wl.windowOps(cfg.seconds), cfg.seconds, segments, wl.warmOps(cfg.seconds), cfg.seed, cfg.scale, cfg.trace)
	if wl.tree {
		r.say("conditions: one RNTree+DS partition, arena %d MiB, MaxSegments 1, latency %s", arenaSize>>20, latencyString(wl.latency))
	} else {
		o, sc := kvOptions(arenaSize), serverConfig()
		r.say("conditions: kv{Partitions:%d Shards:%d DualSlotArray:%v ChunkSize:%d MaxSegments:%d ArenaSize:%d MiB} x %d store(s), latency %s",
			o.Partitions, o.Shards, o.DualSlotArray, o.ChunkSize, o.MaxSegments, arenaSize>>20, wl.stores(), latencyString(wl.latency))
		r.say("conditions: server{Batch greedy (MaxDelay %d), Cache %d entries, rest default}; every acked write is flushed and fenced; memory limit %d MiB, default GOGC",
			sc.Batch.MaxDelay, sc.Cache.MaxEntries, limit>>20)
	}
	r.say("input_digest %s %s (%d key-space keys, %d streams, generated in %.2fs)",
		wl.name, in.digest, in.nkeys, len(in.streams), time.Since(genStart).Seconds())

	// setup_s is the median of several set-ups, so one slow page-fault storm
	// does not decide it. All but the last run in child processes: a second
	// set-up in this process would build its arenas out of recycled heap,
	// which Go zeroes eagerly — it would cost what no server start costs,
	// and leave every arena page resident for peak_rss_mib to count.
	var setups []float64
	for children := setupRepeats - 1; cfg.repeatSetup && len(setups) < children; {
		s, err := setUpInChild(wl, cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		setups = append(setups, s)
		if s < cheapSetup {
			// Milliseconds of set-up are mostly process noise; they are
			// also cheap to repeat.
			children = cheapSetupRepeats - 1
		}
	}
	t0 := time.Now()
	e, err := setUp(wl, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	defer func() { e.tearDown() }()
	setupS := median(setups)
	r.say("setup_s %.4f (median of %s)", setupS, fmtFloats(setups, "%.4f"))

	ver := newVersions(in.nkeys)
	sizeBefore := arenaSizes(e)
	p, err := drive(e, in, ver, cfg.trace)
	if err != nil {
		return nil, err
	}
	weight := 1
	if wl.tree {
		weight = treeSampling
	}
	win := cutWindow(p.recorders(), p.from, p.to, int(wl.windowOps(cfg.seconds))/weight, segments, weight)

	// After the window, before anything stops: the depth-1 probes and the
	// replica's catch-up.
	writers := slices.Clone(p.workers)
	var probes *probeResult
	if cfg.trace && !wl.tree {
		if probes, err = runProbes(e, in, ver); err != nil {
			return nil, err
		}
		writers = append(writers, probes.worker)
	}
	var lagRecords, catchupMs float64
	if wl.repl {
		if lagRecords, catchupMs, err = awaitReplica(e); err != nil {
			return nil, err
		}
	}

	r.check("no_failed_ops", p.errs == 0, "%d of %d calls returned an error (first: %v)", p.errs, p.attempted, p.firstErr)
	r.check("values_verified", p.wrong == 0, "%d reads returned a missing, stale or corrupt value", p.wrong)
	if !wl.tree {
		r.check("requests_accounted", p.requestsSeen == uint64(p.attempted),
			"server counted %d requests for %d calls made", p.requestsSeen, p.attempted)
	}
	r.check("arena_size_unchanged", slices.Equal(sizeBefore, arenaSizes(e)), "Arena.Size() per arena before %v after %v", sizeBefore, arenaSizes(e))
	var maxFill float64
	for _, a := range e.arenas() {
		maxFill = max(maxFill, float64(a.Bump())/float64(a.Size()))
	}
	r.say("arena fill at window end: fullest partition %.0f%% (sizing aims under 75%%)", 100*maxFill)
	if p.cutShort != "" {
		r.say("note: the window holds %d of its %d operations: %s", win.ops(), wl.windowOps(cfg.seconds), p.cutShort)
	}

	// Everything above ran the system; from here on it is taken apart.
	e.stopServing()
	debug.SetMemoryLimit(math.MaxInt64)
	lost, rec, err := crashCheck(e, in, ver, writers)
	if err != nil {
		return nil, err
	}
	r.check("lost_acked_writes", lost == 0, "%d acknowledged writes missing after crash and reopen", lost)

	failed := p.errs + p.wrong + lost
	r.say("fail_ratio %.6g (%d failed of %d attempted); lost_acked_writes %d", float64(failed)/float64(p.attempted), failed, p.attempted, lost)

	if cfg.trace {
		if err := r.traced(in, p, win, rec, ver, probes, lagRecords, catchupMs); err != nil {
			return nil, err
		}
	} else {
		r.endToEnd(in, p, win, setupS)
	}

	correct := true
	for _, c := range r.checks {
		state := "ok"
		if !c.ok {
			state, correct = "FAILED", false
		}
		r.say("check %-22s %s  (%s)", c.name, state, c.detail)
	}
	metrics, err := spec.seal(cfg.trace, r.vals)
	if err != nil {
		return nil, err
	}
	r.result = result{Correct: correct, Attempted: p.attempted, Failed: failed, Metrics: metrics}
	return r, nil
}

func arenaSizes(e *env) []uint64 {
	var s []uint64
	for _, a := range e.arenas() {
		s = append(s, a.Size())
	}
	return s
}

func latencyString(m pmem.LatencyModel) string {
	return fmt.Sprintf("{Fence %v, Flush/line %v, Drain/line %v, Read/line %v}", m.Fence, m.FlushPerLine, m.DrainPerLine, m.ReadPerLine)
}

func fmtFloats(vs []float64, format string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf(format, v)
	}
	return strings.Join(parts, " ")
}

func isRead(k opKind) bool { return !k.isWrite() }

// userBytes is the key and value bytes one write of kind k hands the store.
func (w *workload) userBytes(k opKind) float64 {
	switch {
	case w.tree:
		return 16
	case k == opHSet:
		return float64(keyLen + 2 + w.valSize)
	}
	return float64(keyLen + w.valSize)
}

// tally counts what completed between the two counter snapshots (every
// sample from the window's start on, including the few that finished after
// its nominal end — the second snapshot saw those too).
type tally struct {
	ops, writes, userBytes float64
	byKind                 [numOpKinds]float64
}

func tallyPass(p *pass, wl *workload) tally {
	var t tally
	w := 1.0
	if wl.tree {
		w = treeSampling
	}
	for _, wk := range p.workers {
		for _, s := range wk.rec.samples {
			if s.end < p.from {
				continue
			}
			t.ops += w
			t.byKind[s.kind] += w
			if s.kind.isWrite() {
				t.writes += w
				t.userBytes += w * wl.userBytes(s.kind)
			}
		}
	}
	return t
}

// endToEnd computes the metrics a user of the system would see.
func (r *report) endToEnd(in *inputs, p *pass, win *window, setupS float64) {
	wl := r.wl
	t := tallyPass(p, wl)
	d := func(a, b uint64) float64 { return float64(b - a) }

	tp := win.throughput()
	r.vals["ops_per_s"] = tp.median
	r.say("window: %.3fs, %d ops, %d timed samples; ops_per_s by segment [%s] median %.0f%s",
		float64(p.to-p.from)/1e9, win.ops(), win.ops()/win.weight, fmtFloats(tp.vals, "%.0f"), tp.median, unsteadyMark(tp))

	for _, class := range []struct {
		name string
		pick func(opKind) bool
	}{{"read", isRead}, {"write", opKind.isWrite}} {
		segs := win.latencies(class.pick)
		p50, p95, p99 := quantileUs(segs, 0.5), quantileUs(segs, gatedTail), quantileUs(segs, 0.99)
		r.vals[class.name+"_p50_us"] = p50.median
		r.vals[class.name+"_p95_us"] = p95.median
		p999, maxv, n := pooledUs(segs, 0.999)
		r.say("%s latency: %d samples (highest supportable percentile p%g); p50 %.2f us [%.2f..%.2f]%s; p95 %.2f us [%.2f..%.2f]%s; ungated: p99 %.2f us [%.2f..%.2f]%s, p99.9 %.1f us, max %.1f us",
			class.name, n, 100*highestSupported(n), p50.median, p50.min, p50.max, pooledMark(p50), p95.median, p95.min, p95.max, pooledMark(p95),
			p99.median, p99.min, p99.max, pooledMark(p99), p999, maxv)
	}

	r.vals["nvm_bytes_per_user_byte"] = ratio(pmem.LineSize*d(p.before.pm.LinesFlushed, p.after.pm.LinesFlushed), t.userBytes)

	live := float64(in.nkeys) * wl.userBytes(opWrite)
	for _, wk := range p.workers {
		for k := opKind(0); k < numOpKinds; k++ {
			live += float64(wk.fresh[k]) * wl.userBytes(k)
		}
	}
	r.vals["space_amp"] = ratio(float64(p.after.bump), live)
	r.vals["alloc_bytes_per_op"] = ratio(d(p.before.mem.TotalAlloc, p.after.mem.TotalAlloc), t.ops)
	r.vals["peak_rss_mib"] = p.peakRSSMiB
	r.vals["setup_s"] = setupS
}

func unsteadyMark(s segStat) string {
	if s.unsteady() {
		return " UNSTEADY (segment max/min > 1.25)"
	}
	return ""
}

func pooledMark(s segStat) string {
	if s.n == 1 {
		return " (pooled: too few samples per segment)"
	}
	return unsteadyMark(s)
}

// setUpOnly is the child side of setup_s: build the system once in a fresh
// process, print how long that took, and exit.
func setUpOnly(wl *workload, cfg runConfig) error {
	runtime.GOMAXPROCS(harnessProcs)
	in := generate(wl, cfg.seed, cfg.scale, cfg.seconds, false)
	t0 := time.Now()
	e, err := setUp(wl, in)
	if err != nil {
		return err
	}
	fmt.Println(time.Since(t0).Seconds())
	e.tearDown()
	return nil
}

func setUpInChild(wl *workload, cfg runConfig) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-setup-only", "-workload", wl.name,
		"-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// probeResult is the depth-1 floor of the serving stack, measured on the
// window's own server after the workers have stopped.
type probeResult struct {
	worker    *worker
	pingP50Us float64
	putP50Us  float64
}

// runProbes round-trips probeOps PINGs and then probeOps PUTs, one at a
// time on one connection: the floor under any served op, and the
// unpipelined write every served workload can be compared on.
func runProbes(e *env, in *inputs, ver *versions) (*probeResult, error) {
	cl := e.clients[0]
	base := time.Now()
	lats := make([]int32, 0, probeOps)
	for i := 0; i < probeOps; i++ {
		t0 := time.Since(base)
		if err := cl.Ping(); err != nil {
			return nil, fmt.Errorf("ping probe: %w", err)
		}
		lats = append(lats, int32(time.Since(base)-t0))
	}
	slices.Sort(lats)
	pr := &probeResult{pingP50Us: percentile(lats, 0.5) / 1e3}

	wk := newWorker(in.nworkers()+1, in, ver, probeOps)
	wk.cl = cl
	lats = lats[:0]
	for _, o := range wk.ops {
		t0, t1 := wk.served(o, base)
		lats = append(lats, int32(t1-t0))
	}
	if wk.errs > 0 {
		return nil, fmt.Errorf("put probe: %w", wk.firstErr)
	}
	slices.Sort(lats)
	pr.worker, pr.putP50Us = wk, percentile(lats, 0.5)/1e3
	return pr, nil
}

// awaitReplica reports how far behind the replica was when the workers
// stopped, and how long it took to hold everything the primary committed.
func awaitReplica(e *env) (lagRecords, catchupMs float64, err error) {
	sum := func(lsns []uint64) (s float64) {
		for _, l := range lsns {
			s += float64(l)
		}
		return
	}
	target := e.primary.st.ReplLSNs()
	lagRecords = sum(target) - sum(e.replica.st.ReplLSNs())
	t0 := time.Now()
	for {
		behind := false
		for part, lsn := range e.replica.st.ReplLSNs() {
			if lsn < target[part] {
				behind = true
			}
		}
		if !behind {
			return lagRecords, float64(time.Since(t0)) / 1e6, nil
		}
		if time.Since(t0) > 10*time.Second {
			return 0, 0, errors.New("replica did not catch up within 10s of the window's end")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
