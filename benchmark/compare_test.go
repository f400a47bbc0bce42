package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "write_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		name  string
		m     metricSpec
		a, b  []float64
		want  verdict
		slack bool
	}{
		{"lower: a little worse", lower, []float64{100, 101, 102}, []float64{105, 106, 107}, within, false},
		{"lower: better", lower, []float64{100, 101, 102}, []float64{50, 51, 52}, within, false},
		{"lower: worse than the bound", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, regression, false},
		{"higher: a little worse", higher, []float64{100, 101, 102}, []float64{95, 96, 97}, within, false},
		{"higher: better", higher, []float64{100, 101, 102}, []float64{150, 151, 152}, within, false},
		{"higher: worse than the bound", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, regression, false},
		{"equal medians but a side spreads wider than the bound", lower, []float64{90, 100, 110}, []float64{99, 100, 101}, unresolved, false},
		{"worse medians, overlapping sides, spread wider than the bound", lower, []float64{90, 100, 125}, []float64{95, 120, 121}, unresolved, false},
		{"spread wider than the bound, but every b worse than every a", lower, []float64{90, 100, 110}, []float64{150, 160, 170}, regression, false},
		{"higher: spread wider than the bound, every b worse than every a", higher, []float64{90, 100, 110}, []float64{50, 60, 70}, regression, false},
		{"one set a side: medians decide", lower, []float64{100}, []float64{120}, regression, false},
		{"setup_s: over the bound, inside the absolute slack", setup, []float64{0.010}, []float64{0.020}, within, true},
		{"setup_s: over the bound and the slack", setup, []float64{2.0}, []float64{2.9}, regression, false},
		{"no value on side a", lower, []float64{0}, []float64{5}, unusable, false},
	} {
		j := judge(c.m, c.a, c.b)
		if j.verdict != c.want || j.slack != c.slack {
			t.Errorf("%s: verdict %d slack %v, want %d %v (%+v)", c.name, j.verdict, j.slack, c.want, c.slack, j)
		}
	}
}

func TestCompareSides(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	set := func(seed uint64, seconds float64, workloads map[string]float64) resultSet {
		s := resultSet{Seed: seed, Seconds: seconds, Workloads: map[string]result{}}
		for name, ops := range workloads {
			s.Workloads[name] = result{Correct: true, Attempted: 1000, Metrics: map[string]metricValue{
				"ops_per_s": {Value: ops, Unit: "1/s"},
				"setup_s":   {Value: 0.01, Unit: "s"},
			}}
		}
		return s
	}
	both := map[string]float64{"get_hot": 1000, "get_cold": 500}
	base := []resultSet{set(1, 10, both), set(1, 10, both)}
	slower := []resultSet{set(1, 10, map[string]float64{"get_hot": 1000, "get_cold": 400})}
	failedRun := set(1, 10, both)
	failedRun.Workloads["get_hot"] = result{Correct: false, Attempted: 1000, Failed: 3, Metrics: failedRun.Workloads["get_hot"].Metrics}

	for _, c := range []struct {
		name string
		a, b []resultSet
		want int
	}{
		{"same numbers", base, base, 0},
		{"another seed only warns", base, []resultSet{set(2, 10, both)}, 0},
		{"one workload slower than the bound", base, slower, 1},
		{"a failed run", base, []resultSet{failedRun}, 1},
		{"another window length", base, []resultSet{set(1, 2, both)}, 2},
		{"a workload missing from b", base, []resultSet{set(1, 10, map[string]float64{"get_hot": 1000})}, 2},
		{"a workload only in b", []resultSet{set(1, 10, map[string]float64{"get_hot": 1000})}, base, 2},
		{"sets of one side disagree on the window", []resultSet{set(1, 10, both), set(1, 5, both)}, base, 2},
	} {
		if got := compareSides(spec, c.a, c.b, io.Discard); got != c.want {
			t.Errorf("%s: exit status %d, want %d", c.name, got, c.want)
		}
	}
}

// TestResultSetFiles: several sets of one seed written to one directory sit
// side by side, a directory loads as its untraced sets, and a traced set
// named outright is refused.
func TestResultSetFiles(t *testing.T) {
	dir := t.TempDir()
	untraced := resultSet{Seed: 1, Seconds: 10, Workloads: map[string]result{"get_hot": {Correct: true, Attempted: 1}}}
	traced := untraced
	traced.Trace = true
	var tracedPath string
	for _, s := range []resultSet{untraced, untraced, traced} {
		path, err := writeResultSet(dir, s)
		if err != nil {
			t.Fatal(err)
		}
		tracedPath = path
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "results-*.json")); len(files) != 3 {
		t.Fatalf("3 sets written, %d files found: %v", len(files), files)
	}
	sets, err := loadSide(dir)
	if err != nil || len(sets) != 2 {
		t.Errorf("loading the directory gave %d sets, err %v; want its 2 untraced sets", len(sets), err)
	}
	if _, err := loadSide(tracedPath); err == nil {
		t.Errorf("a traced result set named outright was accepted")
	}
	if _, err := loadSide(filepath.Join(dir, "absent.json")); !os.IsNotExist(err) {
		t.Errorf("a missing file gave %v", err)
	}
}
