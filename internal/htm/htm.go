// Package htm emulates Intel Restricted Transactional Memory (RTM) in
// software over a pmem.Arena, preserving the three properties the paper's
// designs rely on (Section 2.2):
//
//  1. Atomic-write-size amplification: stores executed inside a transaction
//     become visible in the (simulated) cache atomically at commit, or not
//     at all — never partially. A crash before commit loses them wholesale,
//     so a 64-byte slot array updated inside a transaction is always either
//     entirely old or entirely new in NVM.
//  2. Cache-line flush instructions abort a transaction: Tx.Persist always
//     aborts, forcing flushes outside transactions exactly as on real RTM.
//  3. Bounded capacity: a transaction touching more distinct cache lines
//     than the configured L1 budget aborts with a capacity abort.
//
// The emulation is a TL2-style software transactional memory: one versioned
// lock word per cache line, buffered writes, read-set validation at commit,
// and a global fallback lock that doubles as the "lock elision" path real
// RTM deployments pair with XBEGIN. Region.Run retries aborted transactions
// a configurable number of times before grabbing the fallback lock, and
// in-flight transactions observing the fallback lock abort — the standard
// RTM subscription pattern. Region.LoadLine, StoreLine and CopyLine are the
// one- and two-line transactions a slot array needs, driven by the same
// retry loop without Run's general read and write sets.
package htm

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rntree/internal/pmem"
	"rntree/internal/sync2"
)

// AbortCause classifies why a transaction aborted.
type AbortCause int

const (
	// AbortConflict: another transaction or the fallback lock touched a line
	// in this transaction's footprint.
	AbortConflict AbortCause = iota
	// AbortCapacity: the transaction footprint exceeded the line budget
	// (models L1 capacity, the first HTM limitation in Section 2.2).
	AbortCapacity
	// AbortExplicit: user code called Tx.Abort (XABORT).
	AbortExplicit
	// AbortPersist: user code attempted a cache-line flush inside the
	// transaction (the second HTM limitation in Section 2.2).
	AbortPersist
)

// String names the abort cause.
func (c AbortCause) String() string {
	switch c {
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortExplicit:
		return "explicit"
	case AbortPersist:
		return "persist"
	}
	return "unknown"
}

// Stats exposes transaction outcome counters.
type Stats struct {
	Commits        uint64
	ConflictAborts uint64
	CapacityAborts uint64
	ExplicitAborts uint64
	PersistAborts  uint64
	Fallbacks      uint64
	// SpuriousAborts counts aborts injected by the fault-injection model
	// (Config.SpuriousAbortProb): attempts killed before the body ran, as
	// real RTM transactions die to interrupts, TLB shootdowns or cache
	// associativity evictions. They are retried like conflicts but counted
	// separately so experiments can see the injected pressure.
	SpuriousAborts uint64
}

// Config tunes the emulated hardware.
type Config struct {
	// MaxLines is the transaction footprint budget in cache lines. The
	// default (512) models a 32 KiB 8-way L1D.
	MaxLines int
	// MaxRetries is how many times Run re-attempts an aborted transaction
	// before taking the fallback lock. Capacity and persist aborts skip the
	// retries (retrying cannot help, as on real RTM).
	MaxRetries int
	// ForceFallback disables the hardware path entirely: every Run executes
	// under the global fallback lock. This is the "no HTM" ablation — the
	// coarse-grained behaviour a machine without TSX would exhibit.
	ForceFallback bool
	// SpuriousAbortProb injects a seeded spurious abort with this
	// probability per hardware attempt (0 disables). Real RTM transactions
	// abort for reasons unrelated to the footprint — interrupts, TLB
	// shootdowns, associativity misses — and an abort storm must degrade
	// into the fallback path, not livelock. Injected aborts follow the
	// conflict retry path (jittered backoff, then fallback).
	SpuriousAbortProb float64
	// InjectSeed seeds the spurious-abort RNG, making single-threaded
	// injection sequences replayable. Zero uses a fixed default seed.
	InjectSeed int64
}

const (
	defaultMaxLines   = 512
	defaultMaxRetries = 8
)

// Region is an HTM conflict-detection domain covering one arena. All
// transactions that may touch overlapping lines must share a Region.
type Region struct {
	arena *pmem.Arena
	locks []uint64 // per line: bit0 = write-locked, bits 1.. = version
	cfg   Config

	fallbackSeq atomic.Uint64 // odd = fallback lock held

	// injectThreshold is SpuriousAbortProb mapped onto the uint64 range (0
	// = injection off); injectState is the splitmix64 state behind it.
	injectThreshold uint64
	injectState     atomic.Uint64

	// The counters take every commit's and abort's increments; the pads
	// keep them off the line of fallbackSeq and locks, which every
	// transaction reads, so two threads' commits do not bounce it.
	_     [64]byte
	stats struct {
		commits        atomic.Uint64
		conflictAborts atomic.Uint64
		capacityAborts atomic.Uint64
		explicitAborts atomic.Uint64
		persistAborts  atomic.Uint64
		fallbacks      atomic.Uint64
		spuriousAborts atomic.Uint64
	}
	_ [64]byte
}

// NewRegion creates an HTM domain over the arena.
func NewRegion(a *pmem.Arena, cfg Config) *Region {
	if cfg.MaxLines <= 0 {
		cfg.MaxLines = defaultMaxLines
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = defaultMaxRetries
	}
	r := &Region{
		arena: a,
		// Sized by Capacity, not Size: the heap grows by committing
		// segments inside its reserved capacity, and the lock table must
		// already cover lines that appear mid-run.
		locks: make([]uint64, a.Capacity()/pmem.LineSize),
		cfg:   cfg,
	}
	if p := cfg.SpuriousAbortProb; p > 0 {
		if p >= 1 {
			// float64(2^64) overflows the uint64 conversion; saturate.
			r.injectThreshold = ^uint64(0)
		} else {
			r.injectThreshold = uint64(p * float64(1<<63) * 2)
		}
		seed := uint64(cfg.InjectSeed)
		if seed == 0 {
			seed = 0x5ca1ab1e
		}
		r.injectState.Store(seed)
	}
	return r
}

// injectSpurious draws from the seeded injection RNG and reports whether
// this hardware attempt should die spuriously.
func (r *Region) injectSpurious() bool {
	if r.injectThreshold == 0 {
		return false
	}
	return splitmix64(r.injectState.Add(0x9e3779b97f4a7c15)) <= r.injectThreshold
}

// splitmix64 finalizes a Weyl-sequence state into a uniform 64-bit value.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Arena returns the underlying arena.
func (r *Region) Arena() *pmem.Arena { return r.arena }

// Stats returns a snapshot of the outcome counters.
func (r *Region) Stats() Stats {
	return Stats{
		Commits:        r.stats.commits.Load(),
		ConflictAborts: r.stats.conflictAborts.Load(),
		CapacityAborts: r.stats.capacityAborts.Load(),
		ExplicitAborts: r.stats.explicitAborts.Load(),
		PersistAborts:  r.stats.persistAborts.Load(),
		Fallbacks:      r.stats.fallbacks.Load(),
		SpuriousAborts: r.stats.spuriousAborts.Load(),
	}
}

// ResetStats zeroes the outcome counters.
func (r *Region) ResetStats() {
	r.stats.commits.Store(0)
	r.stats.conflictAborts.Store(0)
	r.stats.capacityAborts.Store(0)
	r.stats.explicitAborts.Store(0)
	r.stats.persistAborts.Store(0)
	r.stats.fallbacks.Store(0)
	r.stats.spuriousAborts.Store(0)
}

type abortSignal struct {
	cause AbortCause
}

// Transaction footprints are tiny (a slot-array line or two), so the read
// and write sets are inline arrays with linear search — no allocation on
// the hot path, matching real HTM's near-zero bookkeeping cost. The write
// set is line-granular (like the L1 cache that buffers it on real RTM):
// each entry carries up to eight buffered words and a validity mask.
const (
	maxReadSet = 16
	maxWLines  = 8
)

type readEnt struct{ line, ver uint64 }

type lineWrite struct {
	line  uint64 // line index
	mask  uint8  // bit i set: words[i] is buffered
	words [pmem.WordsPerLine]uint64
}

// Tx is an in-flight transaction. It must only be used by the goroutine
// running Region.Run, and never after the Run callback returns.
type Tx struct {
	r        *Region
	fallback bool
	seq      uint64

	nr    int
	reads [maxReadSet]readEnt
	nwl   int
	wl    [maxWLines]lineWrite
}

func (tx *Tx) reset(r *Region, fallback bool, seq uint64) {
	tx.r, tx.fallback, tx.seq = r, fallback, seq
	tx.nr, tx.nwl = 0, 0
}

func (tx *Tx) readVer(line uint64) (uint64, bool) {
	for i := 0; i < tx.nr; i++ {
		if tx.reads[i].line == line {
			return tx.reads[i].ver, true
		}
	}
	return 0, false
}

func (tx *Tx) lineWriteFor(line uint64, create bool) *lineWrite {
	for i := 0; i < tx.nwl; i++ {
		if tx.wl[i].line == line {
			return &tx.wl[i]
		}
	}
	if !create {
		return nil
	}
	if tx.nwl == maxWLines {
		tx.abort(AbortCapacity)
	}
	w := &tx.wl[tx.nwl]
	tx.nwl++
	w.line = line
	w.mask = 0
	return w
}

func (tx *Tx) bufferedVal(off uint64) (uint64, bool) {
	w := tx.lineWriteFor(off/pmem.LineSize, false)
	if w == nil {
		return 0, false
	}
	i := (off % pmem.LineSize) / pmem.WordSize
	if w.mask&(1<<i) == 0 {
		return 0, false
	}
	return w.words[i], true
}

func (tx *Tx) abort(c AbortCause) {
	panic(abortSignal{cause: c})
}

// Abort explicitly aborts the transaction (XABORT). In Run the transaction
// is NOT retried after an explicit abort; Run returns ErrExplicitAbort.
func (tx *Tx) Abort() {
	tx.abort(AbortExplicit)
}

func (tx *Tx) footprint() int {
	n := tx.nr
	for i := 0; i < tx.nwl; i++ {
		if _, ok := tx.readVer(tx.wl[i].line); !ok {
			n++
		}
	}
	return n
}

func (tx *Tx) checkCapacity() {
	if tx.fallback {
		return // the fallback path is ordinary locked code, no L1 budget
	}
	if tx.footprint() > tx.r.cfg.MaxLines {
		tx.abort(AbortCapacity)
	}
}

// trackRead validates and records the version of the line, aborting on
// conflict. In fallback mode it instead waits for the line to unlock.
func (tx *Tx) trackRead(line uint64) {
	if tx.fallback {
		tx.r.waitUnlocked(line)
		return
	}
	// Subscription check on every read: the moment the fallback lock is
	// taken, in-flight hardware transactions abort (real RTM aborts them via
	// coherence on the lock word). This also prevents zombie reads of the
	// fallback path's direct stores.
	if tx.r.fallbackSeq.Load() != tx.seq {
		tx.abort(AbortConflict)
	}
	v := atomic.LoadUint64(&tx.r.locks[line])
	if v&1 != 0 {
		tx.abort(AbortConflict)
	}
	if prev, ok := tx.readVer(line); ok {
		if prev != v {
			tx.abort(AbortConflict)
		}
		return
	}
	if tx.nr == maxReadSet {
		tx.abort(AbortCapacity)
	}
	tx.reads[tx.nr] = readEnt{line, v}
	tx.nr++
	tx.checkCapacity()
}

// postReadValidate re-checks the line version after the data load, closing
// the load/validate race.
func (tx *Tx) postReadValidate(line uint64) {
	if tx.fallback {
		return
	}
	v, _ := tx.readVer(line)
	if atomic.LoadUint64(&tx.r.locks[line]) != v {
		tx.abort(AbortConflict)
	}
}

// Load8 reads an 8-byte word transactionally.
func (tx *Tx) Load8(off uint64) uint64 {
	if v, ok := tx.bufferedVal(off); ok {
		return v
	}
	line := off / pmem.LineSize
	tx.trackRead(line)
	v := tx.r.arena.Read8(off)
	tx.postReadValidate(line)
	return v
}

// Store8 buffers an 8-byte word store; it becomes visible at commit. In
// fallback mode the store executes immediately, once no hardware commit
// holds its line, as on a real RTM fallback path (ordinary locked code).
//
//pmem:volatile transactional stores are made durable by the caller's commit persist after Run returns, never inside the region
func (tx *Tx) Store8(off uint64, v uint64) {
	if tx.fallback {
		tx.r.waitUnlocked(off / pmem.LineSize)
		tx.r.arena.Write8(off, v)
		return
	}
	w := tx.lineWriteFor(off/pmem.LineSize, true)
	i := (off % pmem.LineSize) / pmem.WordSize
	w.words[i] = v
	w.mask |= 1 << i
	tx.checkCapacity()
}

// LoadLine reads the whole 64-byte line containing off transactionally.
// Buffered stores to the line are folded in.
func (tx *Tx) LoadLine(off uint64, dst *[pmem.LineSize]byte) {
	lineOff := off &^ uint64(pmem.LineSize-1)
	line := lineOff / pmem.LineSize
	tx.trackRead(line)
	tx.r.arena.ReadLine(lineOff, dst)
	tx.postReadValidate(line)
	for w := uint64(0); w < pmem.WordsPerLine; w++ {
		if v, ok := tx.bufferedVal(lineOff + w*pmem.WordSize); ok {
			putWord(dst[w*pmem.WordSize:], v)
		}
	}
}

// StoreLine buffers a store of all 64 bytes of the line containing off.
//
//pmem:volatile transactional stores are made durable by the caller's commit persist after Run returns, never inside the region
func (tx *Tx) StoreLine(off uint64, src *[pmem.LineSize]byte) {
	lineOff := off &^ uint64(pmem.LineSize-1)
	if tx.fallback {
		tx.r.waitUnlocked(lineOff / pmem.LineSize)
		tx.r.arena.WriteLine(lineOff, src)
		return
	}
	w := tx.lineWriteFor(lineOff/pmem.LineSize, true)
	w.mask = 0xff
	w.words = lineWords(src)
	tx.checkCapacity()
}

// Persist models a CLWB/CLFLUSH inside a transaction: it always aborts
// (Section 2.2: "cache-line flush instructions inside a transaction will
// always abort the transaction"). Run responds by executing the body under
// the fallback lock, where pmem.Arena.Persist is legal.
func (tx *Tx) Persist(off, size uint64) {
	if tx.fallback {
		tx.r.arena.Persist(off, size)
		return
	}
	tx.abort(AbortPersist)
}

// InFallback reports whether the transaction is running under the fallback
// lock rather than as a hardware transaction.
func (tx *Tx) InFallback() bool { return tx.fallback }

// commit publishes buffered writes atomically. Returns false on conflict.
//
//pmem:volatile commit drains the write buffer to cache lines; durability is the caller's commit persist after Run returns (a flush here would have aborted the transaction, §2.2)
func (tx *Tx) commit() bool {
	if tx.fallback {
		// Stores already executed directly; exclusivity against the hardware
		// path is guaranteed by the per-read subscription check.
		return true
	}
	if tx.nwl == 0 {
		// Read-only: validate the read set and the fallback subscription.
		if tx.r.fallbackSeq.Load() != tx.seq {
			return false
		}
		for i := 0; i < tx.nr; i++ {
			if atomic.LoadUint64(&tx.r.locks[tx.reads[i].line]) != tx.reads[i].ver {
				return false
			}
		}
		return true
	}
	// Sort the write set by line index for deadlock-free lock acquisition.
	ws := tx.wl[:tx.nwl]
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].line < ws[j-1].line; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	locked := 0
	for i := range ws {
		l := ws[i].line
		v, ok := tx.readVer(l)
		if !ok {
			v = atomic.LoadUint64(&tx.r.locks[l])
			if v&1 != 0 {
				break
			}
		}
		if !atomic.CompareAndSwapUint64(&tx.r.locks[l], v, v|1) {
			break
		}
		locked++
	}
	ok := locked == len(ws)
	// Fallback subscription: abort if the fallback lock was taken (or cycled)
	// since we began.
	if ok && tx.r.fallbackSeq.Load() != tx.seq {
		ok = false
	}
	// Validate reads outside the write set.
	if ok {
	outer:
		for i := 0; i < tx.nr; i++ {
			line := tx.reads[i].line
			for j := range ws {
				if ws[j].line == line {
					continue outer
				}
			}
			if atomic.LoadUint64(&tx.r.locks[line]) != tx.reads[i].ver {
				ok = false
				break
			}
		}
	}
	if !ok {
		for i := 0; i < locked; i++ {
			l := ws[i].line
			atomic.StoreUint64(&tx.r.locks[l], tx.lockedBase(l))
		}
		return false
	}
	for i := range ws {
		w := &ws[i]
		if w.mask == 0xff {
			tx.r.arena.WriteLineWords(w.line*pmem.LineSize, &w.words)
		} else {
			for b := uint64(0); b < pmem.WordsPerLine; b++ {
				if w.mask&(1<<b) != 0 {
					tx.r.arena.Write8(w.line*pmem.LineSize+b*pmem.WordSize, w.words[b])
				}
			}
		}
	}
	for i := range ws {
		l := ws[i].line
		atomic.StoreUint64(&tx.r.locks[l], tx.lockedBase(l)+2)
	}
	return true
}

// lockedBase returns the pre-lock version word for line l (what to restore
// or increment from).
func (tx *Tx) lockedBase(l uint64) uint64 {
	return atomic.LoadUint64(&tx.r.locks[l]) &^ 1
}

// Outcome reports how a Run executed, for tests and statistics.
type Outcome struct {
	// Attempts is the number of hardware attempts made (including the
	// successful one, if any).
	Attempts int
	// Fallback is true if the body finally ran under the fallback lock.
	Fallback bool
	// LastAbort is the cause of the last hardware abort, valid when
	// Attempts > 0 and the first attempt did not commit.
	LastAbort AbortCause
}

// ErrExplicitAbort is returned by Run when the body called Tx.Abort.
type ErrExplicitAbortT struct{}

func (ErrExplicitAbortT) Error() string { return "htm: transaction explicitly aborted" }

// ErrExplicitAbort is the error returned by Run after Tx.Abort.
var ErrExplicitAbort = ErrExplicitAbortT{}

// Run executes body as a transaction, retrying on conflicts and falling back
// to the global lock on capacity/persist aborts or after MaxRetries
// conflicts — the canonical RTM lock-elision loop. Returns ErrExplicitAbort
// if body called Tx.Abort; otherwise nil after a successful commit.
func (r *Region) Run(body func(*Tx)) error {
	out, err := r.RunOutcome(body) //htm:safe pure delegation; the body closure is verified at each caller's Run call site
	_ = out
	return err
}

// RunOutcome is Run plus execution diagnostics.
func (r *Region) RunOutcome(body func(*Tx)) (Outcome, error) {
	tx := txPool.Get().(*Tx)
	defer txPool.Put(tx)
	return r.exec(&txn{}, tx, body)
}

// The line ops are the three fixed-footprint transactions the tree's slot
// arrays need, each the exact transaction Run performs for the matching
// body — same TL2 version checks, fallback subscription, injection, retry
// loop, capacity rule and Stats — without Run's pooled Tx, read and write
// sets, closure and recover. No abort of theirs is explicit, so they return
// nothing.

// LoadLine atomically reads the 64-byte line containing off into dst, as
// Run(func(tx *Tx) { tx.LoadLine(off, dst) }) does.
func (r *Region) LoadLine(off uint64, dst *[pmem.LineSize]byte) {
	r.exec(&txn{op: opLoad, off: off, buf: dst}, nil, nil)
}

// StoreLine atomically stores src over the 64-byte line containing off, as
// Run(func(tx *Tx) { tx.StoreLine(off, src) }) does.
func (r *Region) StoreLine(off uint64, src *[pmem.LineSize]byte) {
	r.exec(&txn{op: opStore, off: off, buf: src}, nil, nil)
}

// CopyLine atomically copies the line containing from over the line
// containing to, as Run(func(tx *Tx) { tx.LoadLine(from, &l);
// tx.StoreLine(to, &l) }) does: two lines of footprint when they differ.
func (r *Region) CopyLine(from, to uint64) {
	r.exec(&txn{op: opCopy, off: from, to: to}, nil, nil)
}

// txnOp names the body a txn carries.
type txnOp uint8

const (
	opRun   txnOp = iota // Run's body in its Tx
	opLoad               // LoadLine(off, buf)
	opStore              // StoreLine(off, buf)
	opCopy               // CopyLine(off, to)
)

// txn is one line op as exec drives it. A Run body and its Tx travel as
// exec's own arguments instead: the Tx escapes into the body, and a field
// beside buf would drag the caller's line buffer to the heap with it.
type txn struct {
	op  txnOp
	off uint64
	to  uint64
	buf *[pmem.LineSize]byte
}

// exec is the one retry loop behind Run and the line ops: spurious-abort
// injection, fallback subscription, jittered backoff on conflicts, no retry
// after a capacity or persist abort, and after MaxRetries (or at once under
// ForceFallback) the body under the fallback lock.
func (r *Region) exec(t *txn, tx *Tx, body func(*Tx)) (Outcome, error) {
	var out Outcome
	var jitter uint64 // lazily seeded per-transaction backoff RNG state
	for attempt := 0; attempt < r.cfg.MaxRetries && !r.cfg.ForceFallback; attempt++ {
		// Spurious-abort injection: the attempt dies before the body runs,
		// as a real transaction dies to an interrupt mid-flight. Retried
		// with the same backoff as a conflict.
		if r.injectSpurious() {
			r.stats.spuriousAborts.Add(1)
			out.Attempts++
			out.LastAbort = AbortConflict
			sync2.JitterBackoff(attempt, &jitter)
			continue
		}
		// Subscribe to the fallback lock: wait while held, remember the seq.
		seq := r.waitFallbackFree()
		out.Attempts++
		cause, ok := r.hwAttempt(t, tx, body, seq)
		if ok {
			r.stats.commits.Add(1)
			return out, nil
		}
		out.LastAbort = cause
		switch cause {
		case AbortExplicit:
			r.stats.explicitAborts.Add(1)
			return out, ErrExplicitAbort
		case AbortConflict:
			r.stats.conflictAborts.Add(1)
			sync2.JitterBackoff(attempt, &jitter)
			continue
		case AbortCapacity:
			r.stats.capacityAborts.Add(1)
		case AbortPersist:
			r.stats.persistAborts.Add(1)
		}
		break // capacity/persist: retrying cannot help
	}
	out.Fallback = true
	r.stats.fallbacks.Add(1)
	return out, r.fallback(t, tx, body)
}

// hwAttempt makes one hardware attempt of t under fallback sequence seq.
func (r *Region) hwAttempt(t *txn, tx *Tx, body func(*Tx), seq uint64) (AbortCause, bool) {
	switch t.op {
	case opLoad:
		line := t.off / pmem.LineSize
		v, ok := r.readLine(seq, line, t.buf)
		// Read-only commit: the subscription and the read still hold.
		return AbortConflict, ok && r.fallbackSeq.Load() == seq && atomic.LoadUint64(&r.locks[line]) == v
	case opStore:
		w := lineWords(t.buf)
		return AbortConflict, r.commitLine(seq, t.off/pmem.LineSize, &w, nil)
	case opCopy:
		var buf [pmem.LineSize]byte
		from, to := t.off/pmem.LineSize, t.to/pmem.LineSize
		v, ok := r.readLine(seq, from, &buf)
		if !ok {
			return AbortConflict, false
		}
		if to != from && r.cfg.MaxLines < 2 {
			return AbortCapacity, false
		}
		w := lineWords(&buf)
		return AbortConflict, r.commitLine(seq, to, &w, &readEnt{from, v})
	}
	tx.reset(r, false, seq)
	return r.attempt(tx, body)
}

// fallback runs t under the fallback lock: direct execution, persists
// allowed.
//
//pmem:volatile the fallback path's stores are made durable by the caller's commit persist after the transaction returns, as on the hardware path
func (r *Region) fallback(t *txn, tx *Tx, body func(*Tx)) error {
	r.acquireFallback()
	defer r.releaseFallback()
	switch t.op {
	case opLoad:
		r.waitUnlocked(t.off / pmem.LineSize)
		r.arena.ReadLine(t.off, t.buf)
	case opStore:
		r.waitUnlocked(t.off / pmem.LineSize)
		r.arena.WriteLine(t.off, t.buf)
	case opCopy:
		var buf [pmem.LineSize]byte
		r.waitUnlocked(t.off / pmem.LineSize)
		r.arena.ReadLine(t.off, &buf)
		r.waitUnlocked(t.to / pmem.LineSize)
		r.arena.WriteLine(t.to, &buf)
	default:
		tx.reset(r, true, 0)
		if cause, ok := r.attempt(tx, body); !ok {
			if cause == AbortExplicit {
				r.stats.explicitAborts.Add(1)
				return ErrExplicitAbort
			}
			panic("htm: fallback transaction aborted with " + cause.String())
		}
	}
	r.stats.commits.Add(1)
	return nil
}

// attempt runs body inside tx, converting abort panics into (cause, false).
func (r *Region) attempt(tx *Tx, body func(*Tx)) (cause AbortCause, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			if sig, is := p.(abortSignal); is {
				cause, ok = sig.cause, false
				return
			}
			panic(p)
		}
	}()
	body(tx)
	if tx.commit() {
		return 0, true
	}
	return AbortConflict, false
}

// readLine is a line op's transactional read of line: Tx.trackRead, the
// load and Tx.postReadValidate for a read set of one. It returns the
// version read, or false on a conflict.
func (r *Region) readLine(seq, line uint64, dst *[pmem.LineSize]byte) (uint64, bool) {
	if r.fallbackSeq.Load() != seq {
		return 0, false
	}
	v := atomic.LoadUint64(&r.locks[line])
	if v&1 != 0 {
		return 0, false
	}
	r.arena.ReadLine(line*pmem.LineSize, dst)
	return v, atomic.LoadUint64(&r.locks[line]) == v
}

// commitLine is Tx.commit for a write set of one line and a read set of at
// most rd: lock the line — from the version read when it is the line read,
// else from its current unlocked version — re-check the subscription and a
// read of another line, store w, and release with the version bumped.
// False on a conflict, the lock restored.
//
//pmem:volatile commit drains the write buffer to cache lines; durability is the caller's commit persist after the transaction returns (a flush here would have aborted it, §2.2)
func (r *Region) commitLine(seq, line uint64, w *[pmem.WordsPerLine]uint64, rd *readEnt) bool {
	other := rd != nil && rd.line != line
	var v uint64
	if rd != nil && !other {
		v = rd.ver
	} else if v = atomic.LoadUint64(&r.locks[line]); v&1 != 0 {
		return false
	}
	if !atomic.CompareAndSwapUint64(&r.locks[line], v, v|1) {
		return false
	}
	if r.fallbackSeq.Load() != seq || other && atomic.LoadUint64(&r.locks[rd.line]) != rd.ver {
		atomic.StoreUint64(&r.locks[line], v)
		return false
	}
	r.arena.WriteLineWords(line*pmem.LineSize, w)
	atomic.StoreUint64(&r.locks[line], v+2)
	return true
}

// waitUnlocked spins until no hardware commit holds line. The fallback path
// calls it before each load and store: a commit that passed its
// subscription check before the fallback lock was taken is still writing
// its lines, and a fallback store landing among its words would leave a
// line mixing the two (on real RTM that store aborts the transaction
// instead). Once the lock is held, no later commit gets past the check.
func (r *Region) waitUnlocked(line uint64) {
	for i := 0; atomic.LoadUint64(&r.locks[line])&1 != 0; i++ {
		spinYield(i)
	}
}

// lineWords is the line b as the eight words a commit stores.
func lineWords(b *[pmem.LineSize]byte) (w [pmem.WordsPerLine]uint64) {
	for i := range w {
		w[i] = getWord(b[i*pmem.WordSize:])
	}
	return w
}

func (r *Region) waitFallbackFree() uint64 {
	for i := 0; ; i++ {
		seq := r.fallbackSeq.Load()
		if seq&1 == 0 {
			return seq
		}
		spinYield(i)
	}
}

func (r *Region) acquireFallback() {
	for i := 0; ; i++ {
		seq := r.fallbackSeq.Load()
		if seq&1 == 0 && r.fallbackSeq.CompareAndSwap(seq, seq+1) {
			return
		}
		spinYield(i)
	}
}

func (r *Region) releaseFallback() {
	r.fallbackSeq.Add(1)
}

// FallbackHeld reports whether the fallback lock is currently held.
func (r *Region) FallbackHeld() bool { return r.fallbackSeq.Load()&1 == 1 }

func putWord(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

func getWord(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

var txPool = sync.Pool{New: func() any { return new(Tx) }}

func spinYield(i int) {
	if i < 6 {
		for j := 0; j < 1<<uint(i); j++ {
			_ = j
		}
		return
	}
	runtime.Gosched()
}
