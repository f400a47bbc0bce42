// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each experiment is a function from a Config to one or
// more Results (tabular series matching the paper's plots); cmd/rnbench and
// the repository-root benchmarks are thin wrappers around this package.
//
// Absolute numbers depend on the simulated-NVM latency model and the host;
// the experiments are designed so the paper's *shapes* — who wins, rough
// factors, where crossovers fall — are reproducible. EXPERIMENTS.md records
// paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rntree/internal/baseline/cdds"
	"rntree/internal/baseline/fptree"
	"rntree/internal/baseline/nvtree"
	"rntree/internal/baseline/wbtree"
	"rntree/internal/core"
	"rntree/internal/pmem"
	"rntree/internal/tree"
	"rntree/internal/ycsb"
)

// TreeKind names one tree implementation.
type TreeKind string

// The trees of the evaluation (§6) plus the CDDS extension.
const (
	KindRNTree     TreeKind = "rntree"
	KindRNTreeDS   TreeKind = "rntree+ds"
	KindNVTree     TreeKind = "nvtree"
	KindNVTreeCond TreeKind = "nvtree-cond"
	KindWBTree     TreeKind = "wbtree"
	KindWBTreeSO   TreeKind = "wbtree-so"
	KindFPTree     TreeKind = "fptree"
	KindCDDS       TreeKind = "cdds"
)

// AllKinds lists every tree, single- and multi-threaded.
var AllKinds = []TreeKind{
	KindRNTree, KindRNTreeDS, KindNVTree, KindNVTreeCond,
	KindWBTree, KindWBTreeSO, KindFPTree, KindCDDS,
}

// Concurrent reports whether the tree supports multi-threading (Table 1:
// only FPTree and RNTree do).
func Concurrent(k TreeKind) bool {
	switch k {
	case KindRNTree, KindRNTreeDS, KindFPTree:
		return true
	}
	return false
}

// Config parameterises an experiment run.
type Config struct {
	// Scale is the number of warm-up records (the paper uses 16M; the
	// default 200k keeps a full run under a few minutes).
	Scale uint64
	// Duration is the measurement window per data point.
	Duration time.Duration
	// Threads is the thread sweep for the scalability experiments.
	Threads []int
	// Latency is the simulated persistent-instruction cost model.
	Latency pmem.LatencyModel
	// Seed makes runs deterministic.
	Seed int64
	// FaultMaxSites caps the crash sites the faultmatrix experiment
	// replays per target (0 = exhaustive). Site sampling is even across
	// the workload, so a capped run still touches every phase.
	FaultMaxSites int
}

func (c Config) normalized() Config {
	if c.Scale == 0 {
		c.Scale = 200_000
	}
	if c.Duration == 0 {
		c.Duration = 300 * time.Millisecond
	}
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16, 24}
	}
	if c.Latency == (pmem.LatencyModel{}) {
		c.Latency = pmem.DefaultLatency
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// collectArenas runs a collection at the end of a sweep point. The point's
// arenas (reserved at full capacity) are unreachable by
// then; left to the pacer, two or three points' worth pile up before a cycle
// starts — inside a later point's measurement window, and several GiB over
// what any one point needs.
func collectArenas() { runtime.GC() }

// arenaFor sizes an arena generously for scale records plus churn.
func arenaFor(c Config, scale uint64) *pmem.Arena {
	size := scale*256 + (64 << 20)
	return pmem.New(pmem.Config{Size: size, Latency: c.Latency})
}

// NewTree builds a fresh tree of the given kind.
func NewTree(k TreeKind, c Config, scale uint64) (tree.Index, *pmem.Arena, error) {
	a := arenaFor(c, scale)
	var ix tree.Index
	var err error
	switch k {
	case KindRNTree:
		ix, err = core.New(a, core.Options{})
	case KindRNTreeDS:
		ix, err = core.New(a, core.Options{DualSlot: true})
	case KindNVTree:
		ix, err = nvtree.New(a, nvtree.Options{})
	case KindNVTreeCond:
		ix, err = nvtree.New(a, nvtree.Options{Conditional: true})
	case KindWBTree:
		ix, err = wbtree.New(a, wbtree.Options{})
	case KindWBTreeSO:
		ix, err = wbtree.New(a, wbtree.Options{SlotOnly: true})
	case KindFPTree:
		ix, err = fptree.New(a, fptree.Options{})
	case KindCDDS:
		ix, err = cdds.New(a, cdds.Options{})
	default:
		return nil, nil, fmt.Errorf("bench: unknown tree kind %q", k)
	}
	return ix, a, err
}

// Warm loads scale records (keys ycsb.KeyAt(0..scale-1)), in parallel for
// concurrent trees.
func Warm(ix tree.Index, k TreeKind, scale uint64) error {
	workers := 1
	if Concurrent(k) {
		workers = runtime.GOMAXPROCS(0) * 2
		if workers > 8 {
			workers = 8
		}
	}
	var firstErr atomic.Value
	var wg sync.WaitGroup
	per := (scale + uint64(workers) - 1) / uint64(workers)
	for w := 0; w < workers; w++ {
		lo := uint64(w) * per
		hi := lo + per
		if hi > scale {
			hi = scale
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := ix.Upsert(ycsb.KeyAt(i), i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// Result is one regenerated table or figure series.
type Result struct {
	ID     string   // e.g. "fig8b"
	Title  string   // the paper's caption, abbreviated
	Header []string // column names
	Rows   [][]string
	Notes  []string
}

// CSV renders the result as comma-separated values with a header row.
func (r Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", r.ID, r.Title)
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// opsCounter is a padded per-worker op counter.
type opsCounter struct {
	n atomic.Uint64
	_ [7]uint64
}

// RunThroughput drives threads workers with the workload against ix for the
// given duration and returns million operations per second. Exported for
// the example programs.
func RunThroughput(ix tree.Index, w ycsb.Workload, threads int, d time.Duration, seed int64, scale uint64) float64 {
	return runThroughput(ix, w, threads, d, seed, scale)
}

// runThroughput drives threads workers with the workload against ix for the
// configured duration and returns million operations per second.
func runThroughput(ix tree.Index, w ycsb.Workload, threads int, d time.Duration, seed int64, scale uint64) float64 {
	counters := make([]opsCounter, threads)
	var insertSeq atomic.Uint64
	insertSeq.Store(scale)
	var start, stop sync.WaitGroup
	begin := make(chan struct{})
	start.Add(threads)
	stop.Add(threads)
	deadline := new(atomic.Int64)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer stop.Done()
			stream := w.Stream(seed + int64(t))
			start.Done()
			<-begin
			ops := uint64(0)
			for {
				if ops&0xff == 0 && time.Now().UnixNano() >= deadline.Load() {
					break
				}
				req := stream()
				execute(ix, req, &insertSeq)
				ops++
			}
			counters[t].n.Store(ops)
		}(t)
	}
	start.Wait()
	t0 := time.Now()
	deadline.Store(t0.Add(d).UnixNano())
	close(begin)
	stop.Wait()
	elapsed := time.Since(t0).Seconds()
	var total uint64
	for i := range counters {
		total += counters[i].n.Load()
	}
	return float64(total) / elapsed / 1e6
}

// execute performs one request. Conditional failures (duplicate insert,
// missing update/remove) still count as executed operations.
func execute(ix tree.Index, req ycsb.Request, insertSeq *atomic.Uint64) {
	switch req.Op {
	case ycsb.OpRead:
		ix.Find(req.Key)
	case ycsb.OpUpdate:
		_ = ix.Update(req.Key, req.Key^0xABCD)
	case ycsb.OpInsert:
		i := insertSeq.Add(1)
		_ = ix.Upsert(ycsb.KeyAt(i), i)
	case ycsb.OpRemove:
		_ = ix.Remove(req.Key)
	case ycsb.OpScan:
		ix.Scan(req.Key, 100, func(_, _ uint64) bool { return true })
	}
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// median3 runs a measurement three times and returns the median, damping
// the run-to-run noise of shared hosts for single-thread data points.
func median3(f func() float64) float64 {
	a, b, c := f(), f(), f()
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// Registry maps experiment IDs to runners.
var Registry = map[string]func(Config) []Result{
	"table1":      Table1,
	"fig4":        Fig4,
	"fig5":        Fig5,
	"fig6":        Fig6,
	"fig7":        Fig7,
	"fig8":        Fig8,
	"fig9":        Fig9,
	"fig10":       Fig10,
	"kvscale":     KVScale,
	"forestscale": ForestScale,
	"heapgrow":    HeapGrow,
	"faultmatrix": FaultMatrix,
}

// ExperimentIDs returns the registered experiment names, sorted.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment.
func RunAll(c Config) []Result {
	var out []Result
	for _, id := range ExperimentIDs() {
		out = append(out, Registry[id](c)...)
	}
	return out
}
