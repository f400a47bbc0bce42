package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// resultSet is what a run of all workloads writes, and what -compare reads.
type resultSet struct {
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

// setupSlackSeconds is the absolute slack on setup_s: a set-up of a few
// milliseconds, or one that is mostly first-touch page faults, moves by more
// than a quarter with the host alone, so it only regresses when it is worse
// by more than its bound and by more than this.
const setupSlackSeconds = 0.3

type verdict int

const (
	within     verdict = iota // b's median is no worse than a's by more than the bound
	unresolved                // the sides' own run-to-run spread is wider than the bound
	regression                // b's median is worse than a's by more than the bound
	unusable                  // a has no positive value to compare against
)

func (v verdict) String() string {
	return [...]string{"", "unresolved", "REGRESSION", "UNUSABLE (no positive value on side a)"}[v]
}

// judgement is one metric on one workload, side b against side a.
type judgement struct {
	medA, medB float64
	worse      float64 // how much worse b's median is, as a share of a's (negative = better)
	spread     float64 // the wider of the two sides' (max-min)/median; 0 with one set a side
	verdict    verdict
	slack      bool // over the bound, but within setup_s's absolute slack
}

// spread is the run-to-run spread of one side: range over median. With the
// handful of sets a side usually has, quartiles would be two of the values.
func spread(vals []float64) float64 {
	return ratio(slices.Max(vals)-slices.Min(vals), median(vals))
}

// judge compares the medians of one metric's values on the two sides. When
// either side's own spread is wider than the bound the medians cannot show
// a change of the bound's size, so the pairing is unresolved — unless every
// value of b is worse than every value of a and the medians differ by more
// than the bound, which no spread explains.
func judge(m metricSpec, a, b []float64) judgement {
	j := judgement{medA: median(a), medB: median(b)}
	if !(j.medA > 0) {
		j.verdict = unusable
		return j
	}
	sign := 1.0 // lower is better: worse means larger
	if m.Better == "higher" {
		sign = -1
	}
	j.worse = sign * (j.medB - j.medA) / j.medA
	j.spread = max(spread(a), spread(b))
	apart := slices.Min(b) > slices.Max(a)
	if sign < 0 {
		apart = slices.Max(b) < slices.Min(a)
	}
	switch {
	case j.worse > m.Bound && m.Name == "setup_s" && j.medB-j.medA <= setupSlackSeconds:
		j.slack = true
	case j.spread > m.Bound && !(j.worse > m.Bound && apart):
		j.verdict = unresolved
	case j.worse > m.Bound:
		j.verdict = regression
	}
	return j
}

// loadSide reads one side of a comparison: a comma-separated list of
// result-set files and of directories, a directory standing for the untraced
// result sets directly inside it.
func loadSide(arg string) ([]resultSet, error) {
	var sets []resultSet
	for _, path := range strings.Split(arg, ",") {
		files := []string{path}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if st.IsDir() {
			if files, err = filepath.Glob(filepath.Join(path, "results-*.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var s resultSet
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			switch {
			case s.Trace && st.IsDir():
				continue
			case s.Trace:
				return nil, fmt.Errorf("%s is a traced result set; -compare gates end-to-end metrics, give it trace-0 sets", f)
			}
			sets = append(sets, s)
		}
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result set", arg)
	}
	return sets, nil
}

// comparable refuses sides whose numbers do not mean the same thing: the
// operation counts, and with them peak_rss_mib, space_amp and setup_s, follow
// from the window length, and a missing workload is a pairing nobody judged.
func comparable(sets []resultSet) error {
	names := func(s resultSet) []string {
		n := make([]string, 0, len(s.Workloads))
		for w := range s.Workloads {
			n = append(n, w)
		}
		sort.Strings(n)
		return n
	}
	for _, s := range sets[1:] {
		if s.Seconds != sets[0].Seconds {
			return fmt.Errorf("result sets measured different windows (%gs and %gs)", sets[0].Seconds, s.Seconds)
		}
		if !slices.Equal(names(s), names(sets[0])) {
			return fmt.Errorf("result sets hold different workloads (%v and %v)", names(sets[0]), names(s))
		}
	}
	if len(sets[0].Workloads) == 0 {
		return errors.New("result sets hold no workloads")
	}
	return nil
}

// compareSides judges side b against side a on every end-to-end metric of
// every workload, against the bounds BENCHMARK.json fixes. Exit status: 0
// nothing regressed (unresolved pairings are listed, they are not passes), 1
// a regression or a failed or incorrect run on either side, 2 the sides
// cannot be compared.
func compareSides(spec *benchSpec, a, b []resultSet, w io.Writer) int {
	if err := comparable(append(slices.Clone(a), b...)); err != nil {
		fmt.Fprintln(w, "benchmark: cannot compare:", err)
		return 2
	}
	seeds := func(sets []resultSet) []uint64 {
		var s []uint64
		for _, r := range sets {
			s = append(s, r.Seed)
		}
		slices.Sort(s)
		return slices.Compact(s)
	}
	fmt.Fprintf(w, "side a: %d result set(s), seeds %v; side b: %d result set(s), seeds %v; %gs windows\n",
		len(a), seeds(a), len(b), seeds(b), a[0].Seconds)
	if !slices.Equal(seeds(a), seeds(b)) {
		fmt.Fprintln(w, "warning: the sides ran different seeds, so different inputs")
	}
	if len(a) == 1 || len(b) == 1 {
		fmt.Fprintln(w, "note: a side with one result set has no spread to judge a difference by: a quick look, not a verdict")
	}

	var names []string
	for n := range a[0].Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	values := func(sets []resultSet, wl, metric string) []float64 {
		var v []float64
		for _, s := range sets {
			v = append(v, s.Workloads[wl].Metrics[metric].Value)
		}
		return v
	}

	var counts [unusable + 1]int
	failedRuns := false
	fmt.Fprintf(w, "%-16s %-26s %14s %14s %9s %8s %7s\n", "workload", "metric", "median a", "median b", "worse by", "spread", "bound")
	for _, n := range names {
		for side, sets := range [][]resultSet{a, b} {
			for _, s := range sets {
				if r := s.Workloads[n]; !r.Correct || r.Failed > 0 {
					fmt.Fprintf(w, "%-16s side %c, seed %d: correct=%v failed=%d  REGRESSION\n", n, 'a'+side, s.Seed, r.Correct, r.Failed)
					failedRuns = true
				}
			}
		}
		for _, m := range spec.EndToEnd {
			j := judge(m, values(a, n, m.Name), values(b, n, m.Name))
			counts[j.verdict]++
			note := j.verdict.String()
			if j.slack {
				note = "(over the bound, within the absolute slack)"
			}
			fmt.Fprintf(w, "%-16s %-26s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				n, m.Name, j.medA, j.medB, 100*j.worse, 100*j.spread, 100*m.Bound, note)
		}
	}
	fmt.Fprintf(w, "%d within bounds, %d unresolved (spread wider than the bound: run more sets), %d regressed, %d unusable\n",
		counts[within], counts[unresolved], counts[regression], counts[unusable])
	switch {
	case counts[unusable] > 0:
		return 2
	case counts[regression] > 0 || failedRuns:
		return 1
	}
	return 0
}

// compareArgs is the -compare command: load both sides, judge, report.
func compareArgs(spec *benchSpec, argA, argB string) int {
	a, err := loadSide(argA)
	if err == nil {
		var b []resultSet
		if b, err = loadSide(argB); err == nil {
			return compareSides(spec, a, b, os.Stdout)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// writeResultSet stores a full run's results under a name no earlier run in
// dir has taken, so that several sets of one seed can sit side by side.
func writeResultSet(dir string, set resultSet) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := 0
	if set.Trace {
		mode = 1
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("results-seed%d-trace%d-%d.json", set.Seed, mode, n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue
		}
		if err != nil {
			return "", err
		}
		_, err = f.Write(append(raw, '\n'))
		return path, errors.Join(err, f.Close())
	}
}
