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
// expirer reaps). Each persist site the workload executes is crashed under
// pre/evicted/torn image variants and recovery is checked against the
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
	for _, tw := range fault.Targets() {
		rep, err := fault.Explore(tw.Target, tw.Ops, fault.Config{
			Seed:      c.Seed,
			MaxSites:  c.FaultMaxSites,
			EvictProb: 0.4,
			Torn:      true,
		})
		if err != nil {
			r.Rows = append(r.Rows, []string{tw.Target.Name(), fmt.Sprint(len(tw.Ops)), "-", "-", "-", "-", "-"})
			r.Notes = append(r.Notes, fmt.Sprintf("%s: harness error: %v", tw.Target.Name(), err))
			continue
		}
		r.Rows = append(r.Rows, []string{
			rep.Target,
			fmt.Sprint(len(tw.Ops)),
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
	return []Result{r}
}
