package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// nameRE is the contract's shape for metric and workload names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end, in both modes, at 1/200 of the
// key space and a quarter-second window: small enough for any host (arenas
// stay under 64 MiB), complete enough that a benchmark which has rotted —
// an API it calls has changed, a metric is no longer emitted, an answer no
// longer verifies — fails here instead of in a gating run.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seen[m.Name] = true
	}

	start := time.Now()
	out := t.TempDir()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.25, scale: 1.0 / 200, trace: trace, outDir: out}
			in := generate(wl, cfg.seed, cfg.scale, cfg.seconds, false)
			if size := wl.arenaSize(in); size > 64<<20 {
				t.Errorf("%s: smoke arena is %d MiB, want at most 64", wl.name, size>>20)
			}
			r, err := runWorkload(wl, cfg, spec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			for _, c := range r.checks {
				if !c.ok {
					t.Errorf("%s trace=%v: check %s failed: %s", wl.name, trace, c.name, c.detail)
				}
			}
			if !r.result.Correct || r.result.Failed != 0 || r.result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d (fail_ratio and lost_acked_writes must be 0)",
					wl.name, trace, r.result.Correct, r.result.Attempted, r.result.Failed)
			}
			// seal already refused a missing or undeclared metric; make the
			// count explicit so a silently shrunken list cannot pass.
			if got, want := len(r.result.Metrics), len(spec.metrics(trace)); got != want {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", wl.name, trace, got, want)
			}
			if !trace {
				for _, m := range spec.EndToEnd {
					if v := r.result.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive number", wl.name, m.Name, v)
					}
				}
			} else if _, err := os.Stat(filepath.Join(out, "trace-"+wl.name+".json")); err != nil {
				t.Errorf("%s: traced run left no span file: %v", wl.name, err)
			}
		}
	}
	if el := time.Since(start); el > 20*time.Second {
		t.Errorf("smoke suite took %v, want under 20s", el)
	}
	if rss := peakRSSMiB(); rss > 1024 {
		t.Errorf("smoke suite peaked at %.0f MiB resident, want under 1 GiB", rss)
	}
}
