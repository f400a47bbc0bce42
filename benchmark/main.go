// Command benchmark is the one benchmark every performance or simplicity
// claim in this repository is measured with. See README.md.
//
//	bash benchmark/run.sh                       all workloads, tracing off
//	bash benchmark/run.sh --trace 1             all workloads, the traced per-layer run
//	bash benchmark/run.sh --workload get_cold --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh --compare baseline out   (sides: files or directories, relative to benchmark/)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "run one workload in this process (default: all, each in a child process)")
		seed    = fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the separate traced run, per-layer metrics")
		out     = fs.String("out", "out", "directory for trace files and result sets")
		compare = fs.Bool("compare", false, "judge side b against side a: -compare a b, each a comma-separated list of result-set files or directories of them")
		setup   = fs.Bool("setup-only", false, "internal: set the workload up once, print the seconds, exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two sides, each a comma-separated list of result-set files or directories")
			return 2
		}
		return compareArgs(spec, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1, -seconds is positive")
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, trace: *trace == 1, outDir: *out, repeatSetup: true}

	if *name == "" {
		return runAll(spec, cfg, args)
	}
	wl := findWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *setup {
		if err := setUpOnly(wl, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: set-up: %v\n", wl.name, err)
			return 1
		}
		return 0
	}
	r, err := runWorkload(wl, cfg, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
		return 1
	}
	r.print(spec)
	if !r.result.Correct {
		return 1
	}
	return 0
}

// print writes the human-readable account, every metric by name with its
// unit, and last the contract's result line.
func (r *report) print(spec *benchSpec) {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, m := range spec.metrics(r.cfg.trace) {
		fmt.Printf("metric %-20s %-36s %16.6g %s\n", r.wl.name, m.Name, r.result.Metrics[m.Name].Value, m.Unit)
	}
	line, _ := json.Marshal(r.result) // a map of plain numbers and strings always marshals
	fmt.Println(string(line))
}

// runAll runs every workload in a child process of its own, so that peak
// RSS is per workload and no arena outlives the workload that built it.
func runAll(spec *benchSpec, cfg runConfig, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: map[string]result{}}
	status := 0
	for _, wl := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", wl.name}, args...)...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		text := strings.TrimRight(stdout.String(), "\n")
		last := text[strings.LastIndexByte(text, '\n')+1:]
		fmt.Println(strings.TrimSuffix(text, last))
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil || runErr != nil && res.Metrics == nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s produced no result: %v\n", wl.name, runErr)
			status = 1
			continue
		}
		if !res.Correct || runErr != nil {
			status = 1
		}
		set.Workloads[wl.name] = res
	}

	fmt.Printf("summary (seed %d, %.3gs windows, trace %v)\n", cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("%-34s", "metric")
	for _, wl := range workloads {
		fmt.Printf(" %15s", wl.name)
	}
	fmt.Println()
	for _, m := range spec.metrics(cfg.trace) {
		fmt.Printf("%-34s", m.Name+" ["+m.Unit+"]")
		for _, wl := range workloads {
			fmt.Printf(" %15.6g", set.Workloads[wl.name].Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	for _, row := range []struct {
		label string
		get   func(result) string
	}{
		{"correct", func(r result) string { return strconv.FormatBool(r.Correct) }},
		{"attempted", func(r result) string { return strconv.Itoa(r.Attempted) }},
		{"failed (incl. lost acked writes)", func(r result) string { return strconv.Itoa(r.Failed) }},
	} {
		fmt.Printf("%-34s", row.label)
		for _, wl := range workloads {
			fmt.Printf(" %15s", row.get(set.Workloads[wl.name]))
		}
		fmt.Println()
	}

	path, err := writeResultSet(cfg.outDir, set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("result set written to", path)
	return status
}
