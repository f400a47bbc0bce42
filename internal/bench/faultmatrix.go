package bench

import (
	"fmt"

	"rntree/internal/fault"
)

// FaultMatrix goes beyond the paper's evaluation: instead of measuring
// throughput it mechanically checks the paper's core *correctness* claim —
// durable linearizability after a crash at any point (§5.4) — by running
// the crash-point explorer over every target fault.Targets lists (the heap,
// the core tree in both slot-array modes, the forest, the kv store with
// compaction, the reopen of a rebooted kv image, the typed-object layer's
// multi-key intent commits and expirer reaps, and a replicated pair crashed
// whole, its primary killed, its replica killed mid-apply, and a crash
// inside the promotion cutover). Each persist site the workload executes is
// crashed under pre/evicted/torn image variants and recovery is checked
// against the durability oracle; a one-node kill also checks the node left
// running. The row count to watch is `violations`: anything but
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
	targets := fault.Targets()
	for i, tw := range targets {
		// A target keeps its last instance, arenas and all, until it is
		// dropped: release each once explored, or the matrix holds them all.
		targets[i].Target = nil
		name, ops := tw.Target.Name(), fmt.Sprint(len(tw.Ops))
		rep, err := fault.Explore(tw.Target, tw.Ops, cfg)
		if err != nil {
			r.Rows = append(r.Rows, []string{name, ops, "-", "-", "-", "-", "-"})
			r.Notes = append(r.Notes, fmt.Sprintf("%s: harness error: %v", name, err))
		} else {
			r.Rows = append(r.Rows, []string{name, ops, fmt.Sprint(rep.Sites), fmt.Sprint(rep.Explored),
				fmt.Sprint(rep.Images), fmt.Sprint(len(rep.Violations)), fmt.Sprintf("%#x", rep.ImageHash)})
		}
		if rep == nil {
			continue
		}
		// A harness error can stop a replay part-way; the violations found
		// before it are still reported.
		for i, v := range rep.Violations {
			if i == 3 {
				r.Notes = append(r.Notes, fmt.Sprintf("%s: ... %d more violations", name, len(rep.Violations)-i))
				break
			}
			r.Notes = append(r.Notes, fmt.Sprintf("%s: VIOLATION %s", name, v))
		}
	}
	return []Result{r}
}
