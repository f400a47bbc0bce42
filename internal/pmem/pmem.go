// Package pmem simulates byte-addressable non-volatile memory (NVM) with an
// explicit CPU-cache/NVM split, as assumed by the SNIA NVM.PM.FILE model the
// paper follows.
//
// The simulator keeps one image of the arena, the cache image: what
// load/store instructions observe. What survives a crash is a clean line's
// cache content and a dirty line's pre-image: its content when last clean,
// saved by the store that dirtied it into a slot of a pool that holds
// dirty lines only (a zero pre-image, a fresh line's, takes no slot).
//
// Ordinary writes mutate only the cache image. Persist — the paper's
// "persistent instruction", a CLWB-per-line followed by a fence — marks the
// touched lines clean, counts, and optionally stalls for a configurable
// latency so that persistent instructions consume CPU cycles exactly where
// they would on real hardware (inside or outside critical sections).
//
// A crash is modelled by CrashImage: every line's durable content, or for a
// random subset of dirty lines (uncontrolled cache eviction) its cache
// content. Recover builds a fresh arena whose cache image equals a crash
// image, as after a reboot, with the geometry and bump mark the image
// persisted (heap.go); an image that holds no such state is ErrBadHeap. Free
// space is rebuilt from the blocks the owners report (MarkLive).
//
// All word accesses use sync/atomic so concurrent tree code is data-race
// free by construction; the synchronization *semantics* (who may see what)
// are enforced by the data structures built on top, not by this package.
package pmem

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

const (
	// LineSize is the simulated cache-line size in bytes: the atomic-write
	// granularity HTM transactions raise stores to (Section 2.2 of the paper).
	LineSize = 64
	// WordSize is the atomic-write size of an ordinary store (Section 2.1).
	WordSize = 8
	// WordsPerLine is the number of 8-byte words in a cache line.
	WordsPerLine = LineSize / WordSize
	// RootSize is the number of bytes reserved at offset 0 for well-known
	// static data (e.g. the pointer to the left-most leaf node used to start
	// recovery, Section 5.4).
	RootSize = LineSize
)

// NullOff is the reserved "nil pointer" offset. Offset 0 is always the root
// line, so 0 can double as the null reference for persistent pointers.
const NullOff uint64 = 0

// LatencyModel configures the simulated cost of persistent instructions.
// Zero values disable the corresponding busy-wait (useful in unit tests).
//
// The model follows measured NVDIMM/Optane behaviour (the paper's ref [1],
// Izraelevitz et al.): CLWBs to distinct lines issue back to back and drain
// concurrently, so a persistent instruction costs one fence-dominated
// constant (the write-queue drain) plus a small per-line bandwidth term —
// NOT a full media write per line.
type LatencyModel struct {
	// FlushPerLine is the bandwidth term charged per cache line flushed by
	// one Persist (tens of nanoseconds).
	FlushPerLine time.Duration
	// Fence is charged once per Persist (and per explicit Fence call): the
	// CLWB round trip plus the ordering fence that waits for the write
	// queue to drain (a few hundred nanoseconds on NVDIMM).
	Fence time.Duration
	// DrainPerLine models the DIMM-internal drain behind the write-pending
	// queue: every persisted line occupies one of the arena's drain lanes
	// for this long before the issuing fence can retire, and concurrent
	// persists to the SAME arena book a lane back to back, in arrival order
	// (a lane is one busy-until instant; nothing queues). On Optane DCPMM a
	// 64-byte flush dirties a whole 256-byte XPLine, so sustained small
	// random persists cost on the order of a microsecond of media occupancy
	// per line (Yang et al., FAST'20). Zero disables the queue: drains are
	// infinitely parallel, as under battery-backed DRAM. This is the term
	// that makes persist bandwidth a per-device resource — spreading a
	// workload over more arenas (more DIMMs) multiplies it.
	DrainPerLine time.Duration
	// PersistStreams is the number of drain lanes per arena (the effective
	// WPQ width); a persist books the one that frees earliest. 0 means 1.
	// Ignored unless DrainPerLine is set.
	PersistStreams int
	// ReadPerLine charges bulk media reads (ReadRange, ReadLine): each
	// cache line read from the arena busy-waits this long, modelling NVM
	// random-read latency — ~300ns per line on Optane DCPMM (Yang et al.,
	// FAST'20), two to three times DRAM. Zero (the default, and correct
	// for DRAM-backed NVDIMM-N) keeps reads free. Word reads (Read8) stay
	// unpriced regardless: they model pointer chasing through lines that
	// are hot in the CPU cache, and charging them would multiply-count the
	// line fetch. This is the term a DRAM-side cache exists to skip.
	ReadPerLine time.Duration
	// StorePerLine charges bulk store instructions (WriteRange, WriteLine,
	// WriteLineWords, Zero, WriteStream): each cache line dirtied by one
	// bulk operation busy-waits this long. All bulk mutators share one
	// charge path, so none of them (Zero included) can understate write
	// cost relative to the others. Zero (the default) models stores that
	// land in the CPU cache for free, which matches the persist-dominated
	// profiles; set it to price store bandwidth itself.
	StorePerLine time.Duration
}

// DefaultLatency models the paper's NVDIMM-N testbed closely enough to
// reproduce the relative weight of persistent instructions: each persist is
// fence-dominated at a few hundred nanoseconds — one to two orders of
// magnitude more than the instructions around it — and wide flushes add a
// small per-line cost.
var DefaultLatency = ProfileNVDIMM

// Named latency profiles for the main classes of persistent memory. They
// matter because the trees differ chiefly in persist counts: the pricier a
// persist, the larger RNTree's two-persist advantage; under eADR (flushes
// effectively free) the designs converge. BenchmarkAblationLatencyProfile
// sweeps them.
var (
	// ProfileNVDIMM models battery-backed DRAM NVDIMM-N (the paper's
	// testbed): fence-dominated at a few hundred nanoseconds.
	ProfileNVDIMM = LatencyModel{FlushPerLine: 25 * time.Nanosecond, Fence: 500 * time.Nanosecond}
	// ProfileOptane models Intel Optane DCPMM per the paper's ref [1]:
	// slower media, costlier drains.
	ProfileOptane = LatencyModel{FlushPerLine: 60 * time.Nanosecond, Fence: 900 * time.Nanosecond}
	// ProfileOptaneDIMM extends ProfileOptane with the per-DIMM drain
	// bottleneck: one drain engine per arena and ~1µs of media occupancy
	// per persisted line (a 64B flush writes a 256B XPLine; at the measured
	// few-hundred-MB/s small-random-write bandwidth of one DCPMM that is
	// roughly a microsecond). Under this profile persist bandwidth is a
	// per-arena resource, which is what the forest's partition-per-arena
	// layout is designed to multiply.
	ProfileOptaneDIMM = LatencyModel{
		FlushPerLine: 60 * time.Nanosecond, Fence: 900 * time.Nanosecond,
		DrainPerLine: time.Microsecond, PersistStreams: 1,
	}
	// ProfileEADR models platforms whose ADR domain covers the caches:
	// flushes become ordering-only and nearly free.
	ProfileEADR = LatencyModel{FlushPerLine: 0, Fence: 30 * time.Nanosecond}
)

// Stats counts persistence traffic. All fields are updated atomically; read
// them via Arena.Stats which returns a consistent-enough snapshot.
type Stats struct {
	// Persists is the number of persistent instructions (flush+fence
	// compounds) executed — the paper's primary cost metric (Table 1).
	Persists uint64
	// LinesFlushed is the total number of cache lines written back to NVM.
	LinesFlushed uint64
	// Fences is the number of ordering fences (one per Persist plus explicit
	// Fence calls).
	Fences uint64
	// WordsWritten counts 8-byte store instructions into the arena,
	// exposing write amplification.
	WordsWritten uint64
	// Allocs and Frees count allocator operations.
	Allocs uint64
	Frees  uint64
	// CrashImages counts crash images synthesized from this arena — the
	// fault-injection traffic of the crash-point explorer.
	CrashImages uint64
	// EvictedLines counts cache lines that reached NVM without ordering
	// (explicit EvictLine calls plus lines merged into crash images by the
	// eviction model).
	EvictedLines uint64
}

// Hooks are test/fuzzing callbacks fired around every persistent
// instruction. They run on the persisting goroutine. BeforePersist fires
// before any line is flushed, AfterPersist after the fence completes, OnFence
// on every standalone Fence (a fence flushes nothing, so one callback
// suffices). Any field may be nil.
type Hooks struct {
	BeforePersist func(off, size uint64)
	AfterPersist  func(off, size uint64)
	OnFence       func()
}

// Config configures a new Heap.
type Config struct {
	// Size is the initial segment's capacity in bytes; rounded up to a
	// whole line and to at least DataStart plus one line. The first RootSize
	// bytes are reserved for root metadata, the segment header follows, and
	// allocation starts at DataStart.
	Size uint64
	// GrowSize is the capacity in bytes of each appended segment (rounded
	// up to a whole line and to at least 4 KiB). 0 means Size: every grown
	// segment matches the initial one.
	GrowSize uint64
	// MaxSegments caps how many segments the heap may hold (initial
	// segment included). 0 or 1 keeps the classic fixed-size arena: the
	// heap never grows and Alloc fails with ErrOutOfMemory at exhaustion.
	MaxSegments int
	// VolatileAlloc is declared and ignored: no code reads it, and every
	// heap carries the persistent allocator whatever this says. The field
	// stays only because benchmark/ladder.go sets it on its scratch arenas
	// and a PR may not edit benchmark/ alongside other code; the
	// benchmark-only follow-up that stops naming it deletes it together with
	// kv.Options.Shards, server.BatchConfig.Puts/MaxDelay and
	// kv.CacheStats.AdmitRejects — five dead fields wait for that one PR
	// (ROADMAP item 1).
	VolatileAlloc bool
	// Latency is the persistent-instruction cost model.
	Latency LatencyModel
}

// Heap is a simulated NVM device mapped into the process, addressed by byte
// offsets — the only pointers any layer persists in it, so an image carries
// no mapping address and recovers at any. Offsets must be 8-byte aligned for
// word accesses; Persist and the line helpers operate at 64-byte granularity.
//
// A heap is an ordered set of segments sharing one contiguous offset space:
// the initial segment spans [0, Size) and each Grow appends a GrowSize
// segment at the current committed end. The cache image and the pre-image
// slots are reserved at full capacity up front (an mmap-like reservation,
// resident where touched) so hot-path loads and stores never take a segment
// lookup or allocate; Size() reports the committed prefix and accesses beyond
// it panic. Slots are reused last-freed first, so the resident ones track the
// peak count of dirty lines, not every line ever re-dirtied. Every segment
// carries a persistent header (see heap.go); free space is volatile, rebuilt
// on every Recover from the blocks the owners report (MarkLive).
type Heap struct {
	cache []uint64 // CPU-visible image; a clean line's durable content
	slots []uint64 // pre-image slots, a line each; a free slot's word 0 links the next
	pre   []uint32 // per line: slot+1 of a dirty line's pre-image, 0 a zero one
	lines []uint64 // two state bits per line, 32 lines a word

	committedW atomic.Uint64 // committed size in words (Size()/WordSize)

	lat   atomic.Pointer[latency]
	hooks atomic.Pointer[Hooks]

	// Every store and persist increments the counters, and every access
	// reads committedW, lat or hooks: the pads give the counters lines of
	// their own, so two writers do not bounce the line every reader needs.
	_     [64]byte
	stats struct {
		persists     atomic.Uint64
		linesFlushed atomic.Uint64
		fences       atomic.Uint64
		wordsWritten atomic.Uint64
		allocs       atomic.Uint64
		frees        atomic.Uint64
		crashImages  atomic.Uint64
		evictedLines atomic.Uint64
	}
	_ [64]byte

	pools [nPools]slotPool

	// The volatile allocator state, under allocMu: one in-use bit per line
	// (segment headers included), the bytes handed out, the lowest line
	// that may be free, the smallest run length (in lines) that free space
	// below the mark could not fit since the last Free, and whether
	// Recover is still waiting for the owners' MarkLive reports. A free
	// fragment smaller than every request (a segment tail a bump skipped,
	// a hole recovery left) pins hint, so without noFit every Alloc would
	// rescan from it to the mark; with it, requests that long or longer
	// bump straight away, and free space a later bump skips waits for the
	// next Free or open (TestAllocSkipsUnfittableFreeSpace).
	allocMu sync.Mutex
	used    []uint64
	inUse   uint64
	hint    uint64
	noFit   uint64
	marking bool

	// Geometry, as persisted in the segment headers.
	seg0Size uint64 // bytes of the initial segment
	growSize uint64 // bytes of each appended segment
	maxSegs  int
}

// Arena is the heap's historical name; the tree, forest and kv layers — and
// rnvet's Arena-method models — address it through this alias.
type Arena = Heap

// New creates a heap whose initial segment is cfg.Size bytes, zeroed, and
// formats it: segment 0's header is persisted and allocation starts at
// DataStart.
func New(cfg Config) *Heap {
	size := (cfg.Size + LineSize - 1) &^ uint64(LineSize-1)
	if size < minHeapSize {
		size = minHeapSize
	}
	grow := (cfg.GrowSize + LineSize - 1) &^ uint64(LineSize-1)
	if grow == 0 {
		grow = size
	}
	if grow < minGrowSize {
		grow = minGrowSize
	}
	maxSegs := cfg.MaxSegments
	if maxSegs <= 0 {
		maxSegs = 1
	}
	h := newHeap(size, grow, maxSegs, cfg.Latency)
	h.committedW.Store(size / WordSize)
	h.formatSeg0()
	h.reserveHeader(0)
	// Formatting is construction, not workload: hand out clean stats.
	h.ResetStats()
	return h
}

// newHeap reserves the cache image and the pre-image slots of a heap of the
// given geometry at full capacity; nothing is committed or formatted yet.
func newHeap(seg0, grow uint64, maxSegs int, lat LatencyModel) *Heap {
	capacity := seg0 + uint64(maxSegs-1)*grow
	nLines := capacity / LineSize
	h := &Heap{
		cache: make([]uint64, capacity/WordSize),
		pre:   make([]uint32, nLines),
		lines: make([]uint64, (nLines+31)/32),
		used:  make([]uint64, (nLines+63)/64),
		noFit: math.MaxUint64,

		seg0Size: seg0,
		growSize: grow,
		maxSegs:  maxSegs,
	}
	nSlots := uint64(0)
	for k := range h.pools {
		// Lines are dealt to the pools a 32-line group at a time.
		rem := nLines % (32 * nPools)
		n := nLines/(32*nPools)*32 + min(rem-min(rem, 32*uint64(k)), 32)
		if h.pools[k].lines = uint32(n); n > 0 {
			nSlots = max(nSlots, (n-1)*nPools+uint64(k)+1)
		}
	}
	h.slots = make([]uint64, nSlots*WordsPerLine)
	h.SetLatency(lat)
	return h
}

// nPools is the number of pre-image slot pools. Line l draws from pool
// l/32%nPools, so writers of different leaves rarely share a free list.
const nPools = 16

// slotPool is one lock-free pool of pre-image slots. Pool k owns slots k,
// k+nPools, …, one per line dealt to it, so a capture never runs out. head
// is the free list, a tag bumped on every change (so a stale pop cannot
// succeed) over slot+1 of its top, 0 when empty; made counts the slots ever
// handed out, taken in order only when the free list is empty.
type slotPool struct {
	head  atomic.Uint64 // tag<<32 | slot+1
	made  atomic.Uint32
	lines uint32 // lines dealt to the pool: its slot budget
	_     [48]byte
}

// takeSlot hands out a free slot (as slot+1) of line's pool.
func (a *Arena) takeSlot(line uint64) uint32 {
	k := line / 32 % nPools
	p := &a.pools[k]
	for {
		if h := p.head.Load(); uint32(h) != 0 {
			next := atomic.LoadUint64(&a.slots[uint64(uint32(h)-1)*WordsPerLine])
			if p.head.CompareAndSwap(h, (h>>32+1)<<32|next) {
				return uint32(h)
			}
		} else if m := p.made.Load(); m < p.lines {
			if p.made.CompareAndSwap(m, m+1) {
				return m*nPools + uint32(k) + 1
			}
		} else {
			runtime.Gosched() // every slot is held or on its way back
		}
	}
}

// giveSlot returns slot s (as slot+1) to line's pool.
func (a *Arena) giveSlot(line uint64, s uint32) {
	p := &a.pools[line/32%nPools]
	for {
		h := p.head.Load()
		atomic.StoreUint64(&a.slots[uint64(s-1)*WordsPerLine], h&math.MaxUint32)
		if p.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(s)) {
			return
		}
	}
}

// latency is an installed cost model and the drain lanes it prices: one
// busy-until instant per PersistStreams lane, none when DrainPerLine is 0.
type latency struct {
	LatencyModel
	lanes []atomic.Int64
}

// Size returns the committed heap size in bytes: the initial segment plus
// every segment committed by Grow. Offsets at or beyond Size() are not yet
// addressable.
func (a *Arena) Size() uint64 { return a.committedW.Load() * WordSize }

// Capacity returns the heap's maximum size in bytes: the committed size plus
// every segment Grow may still append. Fixed (non-growable) heaps have
// Capacity == Size. Lock tables and other per-line side structures sized at
// creation should use Capacity so they survive growth.
func (a *Arena) Capacity() uint64 { return uint64(len(a.cache)) * WordSize }

// Latency returns the arena's persistence cost model.
func (a *Arena) Latency() LatencyModel { return a.lat.Load().LatencyModel }

// SetLatency replaces the persistence cost model, idle drain lanes included;
// an instruction already in flight finishes under the model it started with.
func (a *Arena) SetLatency(m LatencyModel) {
	l := &latency{LatencyModel: m}
	if m.DrainPerLine > 0 {
		l.lanes = make([]atomic.Int64, max(m.PersistStreams, 1))
	}
	a.lat.Store(l)
}

// SetHooks installs persist callbacks (nil clears them).
func (a *Arena) SetHooks(h *Hooks) { a.hooks.Store(h) }

// Stats returns a snapshot of the persistence counters.
func (a *Arena) Stats() Stats {
	return Stats{
		Persists:     a.stats.persists.Load(),
		LinesFlushed: a.stats.linesFlushed.Load(),
		Fences:       a.stats.fences.Load(),
		WordsWritten: a.stats.wordsWritten.Load(),
		Allocs:       a.stats.allocs.Load(),
		Frees:        a.stats.frees.Load(),
		CrashImages:  a.stats.crashImages.Load(),
		EvictedLines: a.stats.evictedLines.Load(),
	}
}

// ResetStats zeroes all persistence counters.
func (a *Arena) ResetStats() {
	a.stats.persists.Store(0)
	a.stats.linesFlushed.Store(0)
	a.stats.fences.Store(0)
	a.stats.wordsWritten.Store(0)
	a.stats.allocs.Store(0)
	a.stats.frees.Store(0)
	a.stats.crashImages.Store(0)
	a.stats.evictedLines.Store(0)
}

func (a *Arena) wordIndex(off uint64) uint64 {
	if off%WordSize != 0 {
		panic(fmt.Sprintf("pmem: misaligned word access at offset %d", off))
	}
	i := off / WordSize
	if i >= a.committedW.Load() {
		panic(fmt.Sprintf("pmem: offset %d out of range (size %d)", off, a.Size()))
	}
	return i
}

// Line states, two bits per line in a.lines.
const (
	fresh     = iota // never stored to since the heap was made: zero, no slot
	capturing        // held: a dirty line's pre-image slot is being used or changed
	dirty            // stored to since its last flush: durable content is its pre-image
	clean            // durable content is the cache line
)

func (a *Arena) state(line uint64) uint64 {
	return atomic.LoadUint64(&a.lines[line/32]) >> (line % 32 * 2) & 3
}

// swapState moves line from state from to state to; false if it is not in from.
func (a *Arena) swapState(line, from, to uint64) bool {
	w, sh := line/32, line%32*2
	for {
		old := atomic.LoadUint64(&a.lines[w])
		if old>>sh&3 != from {
			return false
		}
		if atomic.CompareAndSwapUint64(&a.lines[w], old, old&^(3<<sh)|to<<sh) {
			return true
		}
	}
}

// markDirty makes line dirty before a store lands in it, first saving a clean
// line's words as its pre-image (a fresh line's is zero, so it takes no slot).
// Of two writers of one clean line (tree log entries share lines) one saves
// and the other waits: a save taken after its store would record its
// unpersisted word.
func (a *Arena) markDirty(line uint64) {
	for {
		switch st := a.state(line); {
		case st == dirty:
			return
		case st == capturing:
			runtime.Gosched()
		case st == fresh && a.swapState(line, fresh, dirty):
			return
		case st == clean && a.swapState(line, clean, capturing):
			var w [WordsPerLine]uint64
			nz := uint64(0)
			for i := range w {
				w[i] = atomic.LoadUint64(&a.cache[line*WordsPerLine+uint64(i)])
				nz |= w[i]
			}
			s := uint32(0)
			if nz != 0 {
				s = a.takeSlot(line)
				for i, v := range w {
					atomic.StoreUint64(&a.slots[uint64(s-1)*WordsPerLine+uint64(i)], v)
				}
			}
			atomic.StoreUint32(&a.pre[line], s)
			a.swapState(line, capturing, dirty)
			return
		}
	}
}

// hold moves a dirty line to capturing, waiting out any other holder, and
// reports false once the line is fresh or clean. The holder alone may use the
// line's slot, and ends its hold by storing the line's next state.
func (a *Arena) hold(line uint64) bool {
	for {
		switch a.state(line) {
		case dirty:
			if a.swapState(line, dirty, capturing) {
				return true
			}
		case capturing:
			runtime.Gosched()
		default:
			return false
		}
	}
}

// preWord returns word i of held line's pre-image.
func (a *Arena) preWord(line, i uint64) uint64 {
	if s := atomic.LoadUint32(&a.pre[line]); s != 0 {
		return atomic.LoadUint64(&a.slots[uint64(s-1)*WordsPerLine+i%WordsPerLine])
	}
	return 0
}

// streamPre, after streamed words src landed in line's cache from word i on,
// writes them into a dirty line's pre-image too, waiting out a save under way
// (it may predate the store); a fresh line becomes clean.
func (a *Arena) streamPre(line, i uint64, src []byte) {
	for !a.hold(line) {
		if a.state(line) == clean || a.swapState(line, fresh, clean) {
			return
		}
	}
	s := atomic.LoadUint32(&a.pre[line])
	if s == 0 {
		s = a.takeSlot(line)
		for w := uint64(0); w < WordsPerLine; w++ {
			atomic.StoreUint64(&a.slots[uint64(s-1)*WordsPerLine+w], 0)
		}
		atomic.StoreUint32(&a.pre[line], s)
	}
	for w := uint64(0); w < uint64(len(src))/WordSize; w++ {
		atomic.StoreUint64(&a.slots[uint64(s-1)*WordsPerLine+(i+w)%WordsPerLine], getWord(src[w*WordSize:]))
	}
	a.swapState(line, capturing, dirty)
}

// forDirty calls f on each dirty line below nLines, in order, a word at a time.
func (a *Arena) forDirty(nLines uint64, f func(line uint64)) {
	for w := uint64(0); w*32 < nLines; w++ {
		s := atomic.LoadUint64(&a.lines[w])
		for set := s &^ (s << 1) & 0xaaaaaaaaaaaaaaaa; set != 0; set &= set - 1 {
			if l := w*32 + uint64(bits.TrailingZeros64(set))/2; l < nLines {
				f(l)
			}
		}
	}
}

// Read8 returns the 8-byte word at the (aligned) byte offset from the cache
// image — an ordinary load instruction.
func (a *Arena) Read8(off uint64) uint64 {
	return atomic.LoadUint64(&a.cache[a.wordIndex(off)])
}

// Write8 stores an 8-byte word at the (aligned) byte offset into the cache
// image — an ordinary store instruction. The data is NOT durable until the
// covering line is persisted (or happens to be evicted before a crash).
func (a *Arena) Write8(off uint64, v uint64) {
	i := a.wordIndex(off)
	a.markDirty(off / LineSize)
	atomic.StoreUint64(&a.cache[i], v)
	a.stats.wordsWritten.Add(1)
}

// ReadLine copies the 64-byte cache line containing off into dst.
func (a *Arena) ReadLine(off uint64, dst *[LineSize]byte) {
	base := a.wordIndex(off &^ uint64(LineSize-1))
	for w := 0; w < WordsPerLine; w++ {
		v := atomic.LoadUint64(&a.cache[base+uint64(w)])
		putWord(dst[w*WordSize:], v)
	}
	stallFor(a.lat.Load().ReadPerLine)
}

// chargeStore stalls for the bulk-store bandwidth term for a store touching
// lines cache lines. Every bulk mutator (WriteRange, WriteLine,
// WriteLineWords, Zero, WriteStream) funnels through this one charge path so
// no store primitive can undercount modeled write cost.
func (a *Arena) chargeStore(lines uint64) {
	stallFor(time.Duration(lines) * a.lat.Load().StorePerLine)
}

// WriteLine stores all 64 bytes of src into the cache line containing off.
func (a *Arena) WriteLine(off uint64, src *[LineSize]byte) {
	lineOff := off &^ uint64(LineSize-1)
	base := a.wordIndex(lineOff)
	a.markDirty(lineOff / LineSize)
	for w := 0; w < WordsPerLine; w++ {
		atomic.StoreUint64(&a.cache[base+uint64(w)], getWord(src[w*WordSize:]))
	}
	a.stats.wordsWritten.Add(WordsPerLine)
	a.chargeStore(1)
}

// WriteLineWords stores the eight words of the line containing off at once
// (the bulk path for transactional commits).
func (a *Arena) WriteLineWords(off uint64, w *[WordsPerLine]uint64) {
	lineOff := off &^ uint64(LineSize-1)
	base := a.wordIndex(lineOff)
	a.markDirty(lineOff / LineSize)
	for i := uint64(0); i < WordsPerLine; i++ {
		atomic.StoreUint64(&a.cache[base+i], w[i])
	}
	a.stats.wordsWritten.Add(WordsPerLine)
	a.chargeStore(1)
}

// ReadRange copies size bytes starting at the aligned byte offset into dst.
// off and size must be multiples of 8.
func (a *Arena) ReadRange(off, size uint64, dst []byte) {
	if size%WordSize != 0 {
		panic("pmem: ReadRange size must be word-aligned")
	}
	base := a.wordIndex(off)
	for w := uint64(0); w < size/WordSize; w++ {
		putWord(dst[w*WordSize:], atomic.LoadUint64(&a.cache[base+w]))
	}
	// Charge whole lines: a range read fetches every line it touches.
	lines := (off+size-1)/LineSize - off/LineSize + 1
	stallFor(time.Duration(lines) * a.lat.Load().ReadPerLine)
}

// WriteRange stores len(src) bytes (a multiple of 8) at the aligned offset.
func (a *Arena) WriteRange(off uint64, src []byte) {
	if len(src)%WordSize != 0 {
		panic("pmem: WriteRange size must be word-aligned")
	}
	base := a.wordIndex(off)
	n := uint64(len(src) / WordSize)
	first := off / LineSize
	last := (off + uint64(len(src)) - 1) / LineSize
	for l := first; l <= last; l++ {
		a.markDirty(l)
	}
	for w := uint64(0); w < n; w++ {
		atomic.StoreUint64(&a.cache[base+w], getWord(src[w*WordSize:]))
	}
	a.stats.wordsWritten.Add(n)
	a.chargeStore(last - first + 1)
}

// Persist executes one persistent instruction covering [off, off+size): it
// flushes every cache line in the range to the media and then fences.
// This is the expensive primitive the paper's designs minimise; its cost
// (latency busy-wait) is charged to the calling goroutine.
func (a *Arena) Persist(off, size uint64) {
	a.persistInstr(off, size, func(first, last uint64) {
		for l := first; l <= last; l++ {
			a.flushLine(l)
		}
	})
}

// persistInstr is the one body of a persistent instruction, shared by
// Persist and PersistStream so the two cannot be charged differently: the
// hooks, the three counters, the drain-lane occupancy and the fence stall.
// lines runs between the BeforePersist hook and the accounting, on the
// inclusive line range the instruction covers, inside the modeled time: the
// deadline is fixed before the copies and waited out once after them.
func (a *Arena) persistInstr(off, size uint64, lines func(first, last uint64)) {
	if h := a.hooks.Load(); h != nil && h.BeforePersist != nil {
		h.BeforePersist(off, size)
	}
	if size == 0 {
		size = 1
	}
	first := off / LineSize
	last := (off + size - 1) / LineSize
	n := last - first + 1
	deadline := a.lat.Load().persistEnd(int64(n))
	lines(first, last)
	a.stats.persists.Add(1)
	a.stats.linesFlushed.Add(n)
	a.stats.fences.Add(1)
	stallUntil(deadline)
	if h := a.hooks.Load(); h != nil && h.AfterPersist != nil {
		h.AfterPersist(off, size)
	}
}

// persistEnd returns the instant an n-line persistent instruction issued now
// retires; 0 when it is free. The fence cannot retire until the lines have
// passed through a drain lane (per-DIMM media bandwidth): they book
// n·DrainPerLine on the earliest-free lane, from now or from the end of the
// booking before theirs, so a lane drains one persist at a time.
func (m *latency) persistEnd(n int64) int64 {
	cost := n*int64(m.FlushPerLine) + int64(m.Fence)
	if len(m.lanes) == 0 {
		if cost == 0 {
			return 0
		}
		return now() + cost
	}
	for t := now(); ; {
		lane, free := 0, m.lanes[0].Load()
		for i := 1; i < len(m.lanes); i++ {
			if f := m.lanes[i].Load(); f < free {
				lane, free = i, f
			}
		}
		if end := max(t, free) + n*int64(m.DrainPerLine); m.lanes[lane].CompareAndSwap(free, end) {
			return end + cost
		}
	}
}

// WriteStream stores len(src) bytes (a multiple of 8) at the aligned offset
// straight to the media — the simulator's non-temporal streaming store
// (MOVNT/ntstore): the data bypasses the cache hierarchy and is already
// durable when the following PersistStream fences, so bulk writes cost one
// pass over the bytes instead of WriteRange's store pass plus Persist's flush.
// The words land in the cache image (a clean line's durable content) and in
// the pre-image of any covered dirty line; no line is marked dirty.
//
// Callers must own the written words exclusively until their fence: a
// streamed range becomes durable with no ordering guarantee (exactly like an
// eagerly-evicted line), which is safe only for bytes that nothing reads
// until a later, properly fenced pointer/tail publishes them — the value
// log's append path.
func (a *Arena) WriteStream(off uint64, src []byte) {
	if len(src)%WordSize != 0 {
		panic("pmem: WriteStream size must be word-aligned")
	}
	if len(src) == 0 {
		return
	}
	base := a.wordIndex(off)
	n := uint64(len(src) / WordSize)
	if nativeLittleEndian {
		// The streamed range is exclusively owned until the caller's
		// fenced publish, so no concurrent reader can legally observe
		// these words mid-write — a bulk memmove is equivalent to the
		// per-word atomic stores and several times cheaper (this copy is
		// the hot loop of every value-log append). The byte view matches
		// getWord's little-endian word convention on LE hosts.
		_ = a.cache[base+n-1] //rnvet:ignore atomicfield bounds check before taking the unsafe view; value discarded
		//rnvet:ignore atomicfield LE fast path: range exclusively owned until the fenced publish (comment above), torn intermediate states are unobservable
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&a.cache[base])), len(src)), src)
	} else {
		for w := uint64(0); w < n; w++ {
			atomic.StoreUint64(&a.cache[base+w], getWord(src[w*WordSize:]))
		}
	}
	first, last := off/LineSize, (off+uint64(len(src))-1)/LineSize
	for l := first; l <= last; l++ {
		if s := atomic.LoadUint64(&a.lines[l/32]); s == ^uint64(0) || (s^s>>1)&0x5555555555555555 == 0 &&
			atomic.CompareAndSwapUint64(&a.lines[l/32], s, ^uint64(0)) {
			l |= 31 // the word's 32 lines were fresh or clean and now are clean
		} else {
			i, j := max(l*WordsPerLine, base), min((l+1)*WordsPerLine, base+n)
			a.streamPre(l, i, src[(i-base)*WordSize:(j-base)*WordSize])
		}
	}
	a.stats.wordsWritten.Add(n)
	a.chargeStore(last - first + 1)
}

// nativeLittleEndian reports whether the host stores the low-order byte of
// a word first, i.e. whether a byte view of a word array matches getWord's
// little-endian convention.
var nativeLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Write8Stream is WriteStream for one word.
func (a *Arena) Write8Stream(off uint64, v uint64) {
	i := a.wordIndex(off)
	atomic.StoreUint64(&a.cache[i], v)
	var w [WordSize]byte
	putWord(w[:], v)
	a.streamPre(off/LineSize, i, w[:])
	a.stats.wordsWritten.Add(1)
}

// PersistStream is Persist for a range laid down entirely with
// WriteStream/Write8Stream: the words are already at the media, so no
// line is flushed, but the cost model is charged identically — a
// streaming store spends the same media bandwidth (drain-engine occupancy
// per line) and its fence still waits for the write queue to drain.
func (a *Arena) PersistStream(off, size uint64) {
	a.persistInstr(off, size, func(_, last uint64) {
		if last*WordsPerLine >= uint64(len(a.cache)) {
			panic(fmt.Sprintf("pmem: persist beyond arena (line %d)", last))
		}
	})
}

// Fence executes a standalone ordering fence (no flush).
func (a *Arena) Fence() {
	if h := a.hooks.Load(); h != nil && h.OnFence != nil {
		h.OnFence()
	}
	a.stats.fences.Add(1)
	stallFor(a.lat.Load().Fence)
}

// flushLine writes one line back by marking it clean: its cache content becomes
// its durable content, and its pre-image slot goes back to the pool once the
// line has left the hold. Writers may flush log entries that share a line
// concurrently ("multiple threads can flush logs in parallel", §4.2); each
// one's words are in the cache before its flush, and a save under way may
// predate the caller's store, so the flush waits it out.
func (a *Arena) flushLine(line uint64) {
	if line*WordsPerLine >= uint64(len(a.cache)) {
		panic(fmt.Sprintf("pmem: persist beyond arena (line %d)", line))
	}
	if a.hold(line) {
		s := atomic.LoadUint32(&a.pre[line])
		a.swapState(line, capturing, clean)
		if s != 0 {
			a.giveSlot(line, s)
		}
	}
}

// EvictLine models an uncontrolled cache eviction of the line containing
// off: the cache line reaches NVM without any ordering guarantee. Exposed so
// tests can force the adversarial schedules that persist ordering defends
// against.
func (a *Arena) EvictLine(off uint64) {
	a.flushLine(off / LineSize)
	a.stats.evictedLines.Add(1)
}

// DirtyLines returns the offsets (line-aligned) of all lines stored to since
// their last flush, per the dirty bitmap.
func (a *Arena) DirtyLines() []uint64 {
	var out []uint64
	a.forDirty(a.Size()/LineSize, func(l uint64) { out = append(out, l*LineSize) })
	return out
}

// CrashImage captures what the NVM would contain if the machine lost power
// now. Every persisted line is included; every dirty line is additionally
// included with probability evictProb (rng may be nil when evictProb is 0),
// modelling cache lines the hardware happened to evict before the crash.
//
// Callers must ensure no store or Persist is mid-flight on the lines they
// care about (the crash fuzzer snapshots from persist hooks, which run on
// the persisting goroutine, or after quiescing writers).
func (a *Arena) CrashImage(rng *rand.Rand, evictProb float64) []uint64 {
	cw := a.committedW.Load()
	img := make([]uint64, cw)
	for i := range img {
		img[i] = atomic.LoadUint64(&a.cache[i])
	}
	a.stats.crashImages.Add(1)
	a.forDirty(cw/WordsPerLine, func(l uint64) {
		if evictProb > 0 && rng.Float64() < evictProb {
			a.stats.evictedLines.Add(1) // evicted: its cache content stands
			return
		}
		if a.hold(l) {
			for i := l * WordsPerLine; i < (l+1)*WordsPerLine; i++ {
				img[i] = a.preWord(l, i)
			}
			a.swapState(l, capturing, dirty)
		}
	})
	return img
}

// OverlayCacheLine copies the current cache contents of the line containing
// off into a previously captured crash image, modelling that line reaching
// NVM at the crash (a torn multi-line persist that flushed it, or an
// uncontrolled eviction). img must be an image of this arena.
func (a *Arena) OverlayCacheLine(img []uint64, off uint64) {
	base := (off / LineSize) * WordsPerLine
	if base+WordsPerLine > uint64(len(img)) {
		panic(fmt.Sprintf("pmem: overlay beyond image (offset %d)", off))
	}
	for w := uint64(0); w < WordsPerLine; w++ {
		img[base+w] = atomic.LoadUint64(&a.cache[base+w])
	}
}

// Zero fills [off, off+size) with zero words (size multiple of 8). It is a
// bulk store like WriteRange — same dirty tracking, same per-line charge
// path — so page zeroing is priced identically to writing the page.
func (a *Arena) Zero(off, size uint64) {
	if size%WordSize != 0 {
		panic("pmem: Zero size must be word-aligned")
	}
	if size == 0 {
		return
	}
	base := a.wordIndex(off)
	first := off / LineSize
	last := (off + size - 1) / LineSize
	for l := first; l <= last; l++ {
		a.markDirty(l)
	}
	for w := uint64(0); w < size/WordSize; w++ {
		atomic.StoreUint64(&a.cache[base+w], 0)
	}
	a.stats.wordsWritten.Add(size / WordSize)
	a.chargeStore(last - first + 1)
}

// NVMRead8 reads a word's durable content (what a crash would preserve).
// Intended for tests and recovery verification on quiesced arenas.
func (a *Arena) NVMRead8(off uint64) uint64 {
	i, line := a.wordIndex(off), off/LineSize
	if !a.hold(line) {
		return atomic.LoadUint64(&a.cache[i])
	}
	v := a.preWord(line, i)
	a.swapState(line, capturing, dirty)
	return v
}

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

// pollTail is how close to its deadline, in nanoseconds, a stall stops
// yielding and polls the clock: one runtime.Gosched round trip beside another
// yielding goroutine on the 2-vCPU reference host (BenchmarkGoschedRoundTrip:
// 0.2–0.6 µs). A yield cannot lend the core out for less, so a remainder this
// short — all of an NVDIMM fence — is polled.
const pollTail = 600

var stallBase = time.Now() // now()'s origin: stalls read the monotonic clock only

func now() int64 { return int64(time.Since(stallBase)) }

// stallFor stalls the calling goroutine for d.
func stallFor(d time.Duration) {
	if d > 0 {
		stallUntil(now() + int64(d))
	}
}

// stallUntil stalls the calling goroutine until now() reaches deadline (0:
// no stall, no clock read) and reports how often it yielded. It never returns
// early and never parks: a parked goroutine wakes at the scheduler's mercy,
// milliseconds late behind a long run queue or a GC assist. While more than
// pollTail remains it yields between clock reads, as a draining CLWB/SFENCE
// stalls only its own core — with fewer cores than threads the stall overlaps
// other workers' compute — and a stall taken under a lock still blocks every
// waiter for its full length: the contention the paper measures (§3.4).
func stallUntil(deadline int64) (yields int) {
	if deadline == 0 {
		return 0
	}
	for left := deadline - now(); left > 0; left = deadline - now() {
		if left > pollTail {
			runtime.Gosched()
			yields++
		}
	}
	return yields
}
