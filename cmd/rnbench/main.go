// Command rnbench regenerates the tables and figures of "Building Scalable
// NVM-based B+tree with HTM" (ICPP'19) on the simulated-NVM substrate.
//
// Usage:
//
//	rnbench -exp fig8 -scale 200000 -duration 300ms
//	rnbench -exp all -scale 1000000 -out results.txt
//	rnbench -exp fig8 -cpuprofile cpu.prof    (then: go tool pprof -top cpu.prof)
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, fig9, fig10, and beyond
// the paper kvscale (kv-layer Put thread sweep, 8 partitions vs one value
// log), forestscale (partition sweep of the hash-partitioned forest),
// heapgrow (kv Put throughput across live heap segment appends),
// faultmatrix (crash-point exploration with the durability oracle;
// -fault-sites caps the sites replayed per target), all. Every experiment
// runs in-process and prints a text table; anything measured over a socket
// lives in benchmark/ (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rntree/internal/bench"
	"rntree/internal/pmem"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(bench.ExperimentIDs(), ", ")+" or all)")
		scale    = flag.Uint64("scale", 200_000, "warm-up records (paper: 16M)")
		duration = flag.Duration("duration", 300*time.Millisecond, "measurement window per data point")
		threads  = flag.String("threads", "1,2,4,8,16,24", "thread sweep for scalability experiments")
		flushNS  = flag.Int("flush-ns", 25, "simulated CLWB+drain latency per cache line (0 disables)")
		fenceNS  = flag.Int("fence-ns", 500, "simulated fence latency (0 disables)")
		seed     = flag.Int64("seed", 42, "workload seed")
		faultMax = flag.Int("fault-sites", 0, "faultmatrix: max crash sites replayed per target (0 = exhaustive)")
		out      = flag.String("out", "", "also write results to this file")
		format   = flag.String("format", "table", "output format: table or csv")
		cpuProf  = flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the selected experiments to this file")
	)
	flag.Parse()

	var th []int
	for _, s := range strings.Split(*threads, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "rnbench: bad -threads entry %q\n", s)
			os.Exit(2)
		}
		th = append(th, n)
	}
	cfg := bench.Config{
		Scale:    *scale,
		Duration: *duration,
		Threads:  th,
		Latency: pmem.LatencyModel{
			FlushPerLine: time.Duration(*flushNS) * time.Nanosecond,
			Fence:        time.Duration(*fenceNS) * time.Nanosecond,
		},
		Seed:          *seed,
		FaultMaxSites: *faultMax,
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	fmt.Fprintf(w, "rnbench: scale=%d duration=%v threads=%v flush=%dns fence=%dns GOMAXPROCS=%d\n\n",
		cfg.Scale, cfg.Duration, cfg.Threads, *flushNS, *fenceNS, runtime.GOMAXPROCS(0))

	failed := false
	run := func(id string) {
		f, ok := bench.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "rnbench: unknown experiment %q (have: %s)\n", id, strings.Join(bench.ExperimentIDs(), ", "))
			os.Exit(2)
		}
		t0 := time.Now()
		for _, r := range f(cfg) {
			if *format == "csv" {
				fmt.Fprintln(w, r.CSV())
			} else {
				fmt.Fprintln(w, r.String())
			}
			// The faultmatrix experiment marks durability-oracle failures
			// with a VIOLATION note; make them fail the run so `make
			// faultcheck` gates CI.
			for _, n := range r.Notes {
				if strings.Contains(n, "VIOLATION") || strings.Contains(n, "harness error") {
					failed = true
				}
			}
		}
		fmt.Fprintf(w, "(%s took %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}

	// The profile wraps the experiments and nothing else, and is closed
	// before the exit status is decided (os.Exit runs no defers).
	stopProfile := func() {}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *exp == "all" {
		for _, id := range bench.ExperimentIDs() {
			run(id)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(id))
		}
	}
	stopProfile()
	if failed {
		fmt.Fprintln(os.Stderr, "rnbench: FAIL: durability violations found (see VIOLATION notes above)")
		os.Exit(1)
	}
}
