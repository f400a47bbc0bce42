package bench

import (
	"fmt"

	"rntree/internal/fault"
)

// FaultMatrix goes beyond the paper's evaluation: instead of measuring
// throughput it mechanically checks the paper's core *correctness* claim —
// durable linearizability after a crash at any point (§5.4) — by running
// the crash-point explorer over every layer target (core tree in both
// slot-array modes, the kv store with compaction, the reopen of a rebooted
// kv image, and the typed-object layer's multi-key intent commits and
// expirer reaps), then the two-node failover explorers (primary killed at
// each of its persist sites, replica killed mid-apply, a crash inside the
// promotion cutover). Each persist site the workload executes is crashed
// under pre/evicted/torn image variants and recovery is checked against the
// durability oracle. The row count to watch is `violations`: anything but
// zero is a failure-atomicity bug, replayable from the seed and site index
// in the notes.
func FaultMatrix(c Config) []Result {
	c = c.normalized()
	r := Result{
		ID:     "faultmatrix",
		Title:  "crash-point exploration: every persist site x {pre, evict, torn} vs the durability oracle",
		Header: []string{"target", "ops", "sites", "explored", "images", "violations", "imagehash"},
		Notes: []string{
			fmt.Sprintf("seed=%d maxSites=%d evictProb=0.4 torn=on; oracle: recovered contents == prefix-consistent cut of issued ops",
				c.Seed, c.FaultMaxSites),
		},
	}
	cfg := fault.Config{
		Seed:      c.Seed,
		MaxSites:  c.FaultMaxSites,
		EvictProb: 0.4,
		Torn:      true,
	}
	harnessError := func(target string, ops int, err error) {
		r.Rows = append(r.Rows, []string{target, fmt.Sprint(ops), "-", "-", "-", "-", "-"})
		r.Notes = append(r.Notes, fmt.Sprintf("%s: harness error: %v", target, err))
	}
	report := func(rep *fault.Report, ops int) {
		r.Rows = append(r.Rows, []string{
			rep.Target,
			fmt.Sprint(ops),
			fmt.Sprint(rep.Sites),
			fmt.Sprint(rep.Explored),
			fmt.Sprint(rep.Images),
			fmt.Sprint(len(rep.Violations)),
			fmt.Sprintf("%#x", rep.ImageHash),
		})
		for i, v := range rep.Violations {
			if i == 3 {
				r.Notes = append(r.Notes, fmt.Sprintf("%s: ... %d more violations", rep.Target, len(rep.Violations)-i))
				break
			}
			r.Notes = append(r.Notes, fmt.Sprintf("%s: VIOLATION %s", rep.Target, v))
		}
	}
	for _, tw := range fault.Targets() {
		rep, err := fault.Explore(tw.Target, tw.Ops, cfg)
		if err != nil {
			harnessError(tw.Target.Name(), len(tw.Ops), err)
			continue
		}
		report(rep, len(tw.Ops))
	}
	// The repl/* rows kill one node of a pair and have their own oracle:
	// the survivor holds every acked write and the dead node recovers to a
	// prefix-consistent cut. (kv+repl above crashes both nodes' arenas at
	// once.)
	ops := fault.KVWorkload()
	reps, err := fault.ExploreFailover(ops, cfg)
	if err != nil {
		harnessError("repl/*", len(ops), err)
	}
	for _, rep := range reps {
		report(rep, len(ops))
	}
	return []Result{r}
}
