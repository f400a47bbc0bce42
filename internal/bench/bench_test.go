package bench

import (
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"testing"
	"time"

	"rntree/internal/fault"
	"rntree/internal/pmem"
	"rntree/internal/procmem"
	"rntree/internal/ycsb"
)

// quickCfg keeps harness smoke tests fast: tiny scale, short windows, and a
// cheap latency model.
func quickCfg() Config {
	return Config{
		Scale:    4000,
		Duration: 20 * time.Millisecond,
		Threads:  []int{1, 2},
		Latency:  pmem.LatencyModel{FlushPerLine: 50 * time.Nanosecond, Fence: 20 * time.Nanosecond},
		Seed:     1,
		// The exhaustive matrix is internal/fault's own TestExplore* suite;
		// here the experiment only has to run end to end.
		FaultMaxSites: 20,
	}
}

func TestNewTreeAllKinds(t *testing.T) {
	for _, k := range AllKinds {
		ix, a, err := NewTree(k, quickCfg(), 1000)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if a == nil {
			t.Fatalf("%s: nil arena", k)
		}
		if err := Warm(ix, k, 1000); err != nil {
			t.Fatalf("%s warm: %v", k, err)
		}
		for i := uint64(0); i < 1000; i++ {
			if v, ok := ix.Find(ycsb.KeyAt(i)); !ok || v != i {
				t.Fatalf("%s: warm key %d = (%d,%v)", k, i, v, ok)
			}
		}
	}
}

func TestRunThroughputCounts(t *testing.T) {
	c := quickCfg()
	ix, _, err := NewTree(KindRNTreeDS, c, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := Warm(ix, KindRNTreeDS, c.Scale); err != nil {
		t.Fatal(err)
	}
	m := runThroughput(ix, ycsb.Workload{Mix: ycsb.A, Chooser: ycsb.Uniform{N: c.Scale}}, 2, c.Duration, 1, c.Scale)
	if m <= 0 {
		t.Fatalf("throughput %f", m)
	}
}

func TestResultFormatting(t *testing.T) {
	r := Result{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n"},
	}
	s := r.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted result missing %q:\n%s", want, s)
		}
	}
}

// The registry is exactly the paper's Table 1 / Figures 4–10 plus the
// in-process extensions, so an experiment cannot vanish or appear unnoticed.
func TestExperimentRegistryComplete(t *testing.T) {
	const want = "faultmatrix fig10 fig4 fig5 fig6 fig7 fig8 fig9 forestscale heapgrow kvscale table1"
	if got := strings.Join(ExperimentIDs(), " "); got != want {
		t.Fatalf("registry ids:\n got %s\nwant %s", got, want)
	}
}

// The layer boundary: experiments here run in-process. Anything that needs a
// socket, a client or a replica belongs in benchmark/, which measures it
// with fixed-op windows and paired runs.
func TestInProcessOnly(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				switch path := strings.Trim(imp.Path.Value, `"`); path {
				case "rntree/client", "rntree/internal/server", "rntree/internal/wire",
					"rntree/internal/repl", "rntree/internal/obj", "net":
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

// Table 1's persist columns reproduce the paper's per-modify counts: RNTree
// (both slot modes) and NV-Tree 2, FPTree 3, wB+Tree 4 for insert and
// update, plus at most the split overhead amortization adds on top: an
// RNTree split costs 3 persists, plus the bump mark's flip when its right
// leaf is bumped, so 0.25 allows one such split per 16 inserts (measured:
// 2.10–2.18 over runs, the warm-up is concurrent).
func TestTable1PersistCounts(t *testing.T) {
	const splitOverhead = 0.25
	paper := map[string]float64{"rntree": 2, "rntree+ds": 2, "nvtree": 2, "fptree": 3, "wbtree": 4}
	r := Table1(quickCfg())[0]
	col := map[string]int{}
	for i, h := range r.Header {
		col[h] = i
	}
	seen := 0
	for _, row := range r.Rows {
		want, ok := paper[row[0]]
		if !ok {
			continue
		}
		seen++
		for _, op := range []string{"insert", "update"} {
			got, err := strconv.ParseFloat(row[col[op]], 64)
			if err != nil {
				t.Fatalf("%s %s: %v", row[0], op, err)
			}
			if got < want || got > want+splitOverhead {
				t.Errorf("%s: %.2f persists per %s, paper %.0f (+%.1f split overhead)", row[0], got, op, want, splitOverhead)
			}
			lines, err := strconv.ParseFloat(row[col[op+" lines"]], 64)
			if err != nil || lines < got {
				t.Errorf("%s: %s lines %q below its %.2f persists (%v)", row[0], op, row[col[op+" lines"]], got, err)
			}
		}
	}
	if seen != len(paper) {
		t.Fatalf("table1 has %d of the %d trees with a paper count", seen, len(paper))
	}
}

// Smoke-run each experiment at tiny scale so regressions in the harness are
// caught by go test (the real runs go through cmd/rnbench).
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test")
	}
	c := quickCfg()
	for _, id := range ExperimentIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			results := Registry[id](c)
			if len(results) == 0 {
				t.Fatal("no results")
			}
			for _, r := range results {
				if len(r.Rows) == 0 || len(r.Header) == 0 {
					t.Fatalf("%s: empty result", r.ID)
				}
				for _, row := range r.Rows {
					if len(row) != len(r.Header) {
						t.Fatalf("%s: row width %d != header %d", r.ID, len(row), len(r.Header))
					}
				}
			}
			if id == "faultmatrix" {
				checkFaultMatrixRows(t, results[0])
			}
		})
	}
	// The suite once peaked at ~15 GiB — experiments reserving GiB-scale
	// arenas per point, collected late — and was OOM-killed on a 16 GiB
	// host. Hold the process's high-water mark well under that.
	if hwm, ok := procmem.PeakRSS(); ok && hwm > 4<<30 {
		t.Fatalf("peak RSS %d MiB exceeds the 4 GiB smoke budget", hwm>>20)
	}
}

// checkFaultMatrixRows asserts one row per fault target, in order, and no
// harness error: a target that fails must not take its neighbours' rows
// with it.
func checkFaultMatrixRows(t *testing.T, r Result) {
	t.Helper()
	tws := fault.Targets()
	if len(r.Rows) != len(tws) {
		t.Fatalf("faultmatrix: %d rows for %d targets", len(r.Rows), len(tws))
	}
	for i, tw := range tws {
		if got := r.Rows[i][0]; got != tw.Target.Name() {
			t.Fatalf("faultmatrix row %d: target %q, want %q", i, got, tw.Target.Name())
		}
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "harness error") || strings.Contains(n, "VIOLATION") {
			t.Fatalf("faultmatrix: %s", n)
		}
	}
}

func TestResultCSV(t *testing.T) {
	r := Result{ID: "x", Title: "t", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	csv := r.CSV()
	for _, want := range []string{"# x: t", "a,b", "1,2"} {
		if !strings.Contains(csv, want) {
			t.Fatalf("csv missing %q:\n%s", want, csv)
		}
	}
}
