package bench

import (
	"fmt"
	"runtime"
	"time"

	"rntree/internal/core"
	"rntree/internal/pmem"
	"rntree/internal/tree"
	"rntree/internal/ycsb"
)

// ---------------------------------------------------------------------------
// Table 1 — persistent instructions per modify operation, sortedness and
// concurrency support across trees.
// ---------------------------------------------------------------------------

// Table1 measures the persistent-instruction cost per insert/update/remove
// for every tree (amortized over many operations, so split traffic is
// included), the cache lines those instructions flush per insert and update
// (what the media pays for), and tabulates the qualitative columns of the
// paper's Table 1.
func Table1(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "table1",
		Title:  "Overview: persists per modify and lines they flush (measured, amortized), sorted leaves, concurrency",
		Header: []string{"tree", "insert", "update", "remove", "insert lines", "update lines", "sorted", "concurrency"},
	}
	sorted := map[TreeKind]string{
		KindRNTree: "yes", KindRNTreeDS: "yes", KindNVTree: "no", KindNVTreeCond: "no",
		KindWBTree: "yes", KindWBTreeSO: "yes", KindFPTree: "no", KindCDDS: "yes",
	}
	conc := map[TreeKind]string{
		KindRNTree: "fine-grained", KindRNTreeDS: "fine-grained",
		KindNVTree: "none", KindNVTreeCond: "none",
		KindWBTree: "none", KindWBTreeSO: "none",
		KindFPTree: "coarse leaf lock", KindCDDS: "none",
	}
	const warm = 4000
	const ops = 2000
	for _, k := range AllKinds {
		ix, a, err := NewTree(k, c, warm*4)
		if err != nil {
			panic(err)
		}
		if err := Warm(ix, k, warm); err != nil {
			panic(err)
		}
		// measure returns the persists and the lines they flushed per op.
		measure := func(f func(i uint64) error) (persists, lines float64) {
			a.ResetStats()
			for i := uint64(0); i < ops; i++ {
				if err := f(i); err != nil {
					panic(err)
				}
			}
			st := a.Stats()
			return float64(st.Persists) / ops, float64(st.LinesFlushed) / ops
		}
		ins, insLines := measure(func(i uint64) error { return ix.Insert(ycsb.KeyAt(warm+i), i) })
		upd, updLines := measure(func(i uint64) error { return ix.Update(ycsb.KeyAt(i%warm), i) })
		rem, _ := measure(func(i uint64) error { return ix.Remove(ycsb.KeyAt(i)) })
		res.Rows = append(res.Rows, []string{
			string(k), f2(ins), f2(upd), f2(rem), f2(insLines), f2(updLines), sorted[k], conc[k],
		})
	}
	res.Notes = append(res.Notes,
		"paper: CDDS=L*, NV-Tree=2, wB+Tree=4, FPTree=3, RNTree=2",
		"measured values are amortized over splits, so they sit slightly above the per-op minimum",
		"lines: cache lines flushed per op by those persists, split and compaction images included")
	return []Result{res}
}

// ---------------------------------------------------------------------------
// Figure 4 — single-thread throughput of basic operations.
// ---------------------------------------------------------------------------

var fig4Kinds = []TreeKind{KindRNTree, KindRNTreeDS, KindNVTree, KindWBTree, KindWBTreeSO, KindFPTree}

// Fig4 reproduces the single-thread find/insert/update/remove/mixed
// comparison.
func Fig4(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "fig4",
		Title:  "Single-thread throughput (Mops/s) of basic operations",
		Header: []string{"tree", "find", "insert", "update", "remove", "mixed"},
	}
	for _, k := range fig4Kinds {
		row := []string{string(k)}
		for _, op := range []string{"find", "insert", "update", "remove", "mixed"} {
			row = append(row, f3(median3(func() float64 { return fig4Point(c, k, op) })))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: RNTree best-or-tied on find/insert/update; FPTree wins remove (1 persist); RNTree 25-44% faster on mixed")
	return []Result{res}
}

func fig4Point(c Config, k TreeKind, op string) float64 {
	ix, _, err := NewTree(k, c, c.Scale)
	if err != nil {
		panic(err)
	}
	if err := Warm(ix, k, c.Scale); err != nil {
		panic(err)
	}
	d := c.Duration
	switch op {
	case "find":
		return runThroughput(ix, ycsb.Workload{Mix: ycsb.C, Chooser: ycsb.Uniform{N: c.Scale}}, 1, d, c.Seed, c.Scale)
	case "update":
		return runThroughput(ix, ycsb.Workload{Mix: ycsb.Mix{Update: 100}, Chooser: ycsb.Uniform{N: c.Scale}}, 1, d, c.Seed, c.Scale)
	case "insert":
		return runSequenced(d, func(i uint64) { _ = ix.Insert(ycsb.KeyAt(c.Scale+i), i) }, c.Scale*4)
	case "remove":
		// The paper runs remove only briefly so the tree is not drained;
		// we additionally cap at the warmed population.
		rd := d / 3
		if rd <= 0 {
			rd = d
		}
		return runSequenced(rd, func(i uint64) { _ = ix.Remove(ycsb.KeyAt(i)) }, c.Scale)
	case "mixed":
		return runThroughput(ix, ycsb.Workload{Mix: ycsb.MixedQuarter, Chooser: ycsb.Uniform{N: c.Scale}}, 1, d, c.Seed, c.Scale)
	}
	panic("unknown op " + op)
}

// runSequenced drives a single-threaded indexed op stream until the deadline
// or limit and returns Mops/s.
func runSequenced(d time.Duration, f func(i uint64), limit uint64) float64 {
	t0 := time.Now()
	deadline := t0.Add(d)
	i := uint64(0)
	for ; i < limit; i++ {
		if i&0xff == 0 && time.Now().After(deadline) {
			break
		}
		f(i)
	}
	return float64(i) / time.Since(t0).Seconds() / 1e6
}

// ---------------------------------------------------------------------------
// Figure 5 — NV-Tree conditional-write overhead.
// ---------------------------------------------------------------------------

// Fig5 measures the slowdown NV-Tree pays to support conditional writes
// (scanning the leaf log before every modify); the paper reports ~19%.
func Fig5(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "fig5",
		Title:  "NV-Tree conditional-write overhead (Mops/s and slowdown)",
		Header: []string{"op", "nvtree", "nvtree-cond", "overhead%"},
	}
	for _, op := range []string{"insert", "update"} {
		plain := median3(func() float64 { return fig5Point(c, KindNVTree, op) })
		cond := median3(func() float64 { return fig5Point(c, KindNVTreeCond, op) })
		res.Rows = append(res.Rows, []string{
			op, f3(plain), f3(cond), f2((plain - cond) / plain * 100),
		})
	}
	res.Notes = append(res.Notes, "paper: ~19% slowdown for conditional writes on unsorted leaves; RNTree pays 0 (slot array locates the key anyway)")
	return []Result{res}
}

func fig5Point(c Config, k TreeKind, op string) float64 {
	ix, _, err := NewTree(k, c, c.Scale)
	if err != nil {
		panic(err)
	}
	if err := Warm(ix, k, c.Scale); err != nil {
		panic(err)
	}
	if op == "insert" {
		return runSequenced(c.Duration, func(i uint64) { _ = ix.Insert(ycsb.KeyAt(c.Scale+i), i) }, c.Scale*4)
	}
	return runThroughput(ix, ycsb.Workload{Mix: ycsb.Mix{Update: 100}, Chooser: ycsb.Uniform{N: c.Scale}}, 1, c.Duration, c.Seed, c.Scale)
}

// ---------------------------------------------------------------------------
// Figure 6 — range-query throughput vs scan length.
// ---------------------------------------------------------------------------

var fig6Kinds = []TreeKind{KindRNTree, KindRNTreeDS, KindWBTree, KindNVTree, KindFPTree}

// Fig6 reproduces the range-query comparison: sorted leaves scan directly;
// unsorted leaves (NV-Tree, FPTree) must sort every leaf they visit.
func Fig6(c Config) []Result {
	c = c.normalized()
	lengths := []int{10, 100, 1000, 10000}
	res := Result{
		ID:    "fig6",
		Title: "Range-query throughput (Kops/s) vs number of KVs per query",
		Header: append([]string{"tree"}, func() []string {
			h := make([]string, len(lengths))
			for i, l := range lengths {
				h[i] = fmt.Sprintf("scan%d", l)
			}
			return h
		}()...),
	}
	for _, k := range fig6Kinds {
		ix, _, err := NewTree(k, c, c.Scale)
		if err != nil {
			panic(err)
		}
		if err := Warm(ix, k, c.Scale); err != nil {
			panic(err)
		}
		row := []string{string(k)}
		for _, l := range lengths {
			w := ycsb.Workload{Mix: ycsb.Mix{}, Chooser: ycsb.Uniform{N: c.Scale}}
			stream := w.Stream(c.Seed)
			t0 := time.Now()
			deadline := t0.Add(c.Duration)
			ops := 0
			for !time.Now().After(deadline) {
				req := stream()
				ix.Scan(req.Key, l, func(_, _ uint64) bool { return true })
				ops++
			}
			row = append(row, f2(float64(ops)/time.Since(t0).Seconds()/1e3))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, "paper: RNTree ~4.2x NV-Tree/FPTree across scan lengths")
	return []Result{res}
}

// ---------------------------------------------------------------------------
// Figure 7 — recovery time vs tree size.
// ---------------------------------------------------------------------------

// Fig7 measures RNTree reconstruction (clean shutdown) and crash recovery
// across tree sizes; the paper reports linear scaling with crash recovery
// ~60% above reconstruction.
func Fig7(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "fig7",
		Title:  "RNTree recovery time vs tree size (ms)",
		Header: []string{"records", "reconstruction_ms", "crash_recovery_ms", "ratio"},
	}
	for _, frac := range []uint64{8, 4, 2, 1} {
		n := c.Scale / frac
		a := arenaFor(c, n)
		tr, err := core.New(a, core.Options{})
		if err != nil {
			panic(err)
		}
		if err := Warm(tr, KindRNTree, n); err != nil {
			panic(err)
		}
		tr.Close()
		img := a.CrashImage(nil, 0)

		recMs := median3(func() float64 {
			a1, err := pmem.Recover(img, pmem.Config{})
			if err != nil {
				panic(err)
			}
			runtime.GC() // keep arena-copy garbage out of the timed section
			t0 := time.Now()
			if _, err := core.Reconstruct(a1, core.Options{}); err != nil {
				panic(err)
			}
			return float64(time.Since(t0).Microseconds()) / 1000
		})
		crashMs := median3(func() float64 {
			a2, err := pmem.Recover(img, pmem.Config{})
			if err != nil {
				panic(err)
			}
			runtime.GC()
			t0 := time.Now()
			if _, err := core.CrashRecover(a2, core.Options{}); err != nil {
				panic(err)
			}
			return float64(time.Since(t0).Microseconds()) / 1000
		})

		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n),
			f2(recMs),
			f2(crashMs),
			f2(crashMs / recMs),
		})
	}
	res.Notes = append(res.Notes, "paper: both linear in tree size; crash recovery ~1.6x reconstruction")
	return []Result{res}
}

// ---------------------------------------------------------------------------
// Figure 8 — throughput scalability.
// ---------------------------------------------------------------------------

var fig8Kinds = []TreeKind{KindFPTree, KindRNTree, KindRNTreeDS}

// Fig8 reproduces the three scalability plots: (a) YCSB-A uniform, (b)
// YCSB-A Zipfian 0.8, (c) read-intensive (90/10) Zipfian 0.8.
func Fig8(c Config) []Result {
	c = c.normalized()
	variants := []struct {
		id, title string
		mix       ycsb.Mix
		zipf      float64
	}{
		{"fig8a", "YCSB-A uniform: throughput (Mops/s) vs threads", ycsb.A, 0},
		{"fig8b", "YCSB-A Zipfian 0.8: throughput (Mops/s) vs threads", ycsb.A, 0.8},
		{"fig8c", "Read-intensive (90/10) Zipfian 0.8: throughput (Mops/s) vs threads", ycsb.ReadIntensive, 0.8},
	}
	var out []Result
	for _, v := range variants {
		res := Result{
			ID:     v.id,
			Title:  v.title,
			Header: []string{"threads"},
		}
		for _, k := range fig8Kinds {
			res.Header = append(res.Header, string(k), string(k)+" rtr/kop")
		}
		built := map[TreeKind]treeHandle{}
		for _, k := range fig8Kinds {
			built[k] = buildWarm(c, k)
		}
		for _, th := range c.Threads {
			row := []string{fmt.Sprintf("%d", th)}
			for _, k := range fig8Kinds {
				var ch ycsb.Chooser
				if v.zipf > 0 {
					ch = built[k].zipf(c, v.zipf)
				} else {
					ch = ycsb.Uniform{N: c.Scale}
				}
				r0 := readRetriesOf(built[k].ix)
				m := runThroughput(built[k].ix, ycsb.Workload{Mix: v.mix, Chooser: ch}, th, c.Duration, c.Seed, c.Scale)
				rtr := float64(readRetriesOf(built[k].ix)-r0) / (m * 1e3 * c.Duration.Seconds())
				row = append(row, f3(m), f2(rtr))
			}
			res.Rows = append(res.Rows, row)
		}
		res.Notes = append(res.Notes, fig8Note(v.id),
			"rtr/kop = wasted read attempts per 1000 ops (leaf locked / version changed): FPTree's root restarts vs RNTree+DS's near-zero")
		if runtime.GOMAXPROCS(0) < 2 {
			res.Notes = append(res.Notes, fmt.Sprintf("host has GOMAXPROCS=%d: parallel speedup is flattened; contention ordering between trees remains meaningful", runtime.GOMAXPROCS(0)))
		}
		out = append(out, res)
	}
	return out
}

func fig8Note(id string) string {
	switch id {
	case "fig8a":
		return "paper: FPTree and RNTree both scale near-linearly under uniform keys"
	case "fig8b":
		return "paper: FPTree stops scaling at ~4 threads; RNTree(+DS) ~1.8x FPTree at 24"
	default:
		return "paper: only RNTree+DS keeps near-linear scalability; FPTree finds break on locked leaves"
	}
}

type treeHandle struct {
	ix tree.Index
	z  map[float64]*ycsb.Zipfian
}

func (h treeHandle) zipf(c Config, theta float64) *ycsb.Zipfian {
	if z, ok := h.z[theta]; ok {
		return z
	}
	z := ycsb.NewZipfian(c.Scale, theta)
	h.z[theta] = z
	return z
}

func buildWarm(c Config, k TreeKind) treeHandle {
	ix, _, err := NewTree(k, c, c.Scale)
	if err != nil {
		panic(err)
	}
	if err := Warm(ix, k, c.Scale); err != nil {
		panic(err)
	}
	return treeHandle{ix: ix, z: map[float64]*ycsb.Zipfian{}}
}

// readRetriesOf returns the tree's wasted-read counter, if it has one.
func readRetriesOf(ix tree.Index) uint64 {
	if r, ok := ix.(interface{ ReadRetries() uint64 }); ok {
		return r.ReadRetries()
	}
	return 0
}

func kindsHeader(kinds []TreeKind) []string {
	h := make([]string, len(kinds))
	for i, k := range kinds {
		h[i] = string(k)
	}
	return h
}
