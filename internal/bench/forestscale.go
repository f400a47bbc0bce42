package bench

import (
	"fmt"

	"rntree/internal/core"
	"rntree/internal/forest"
	"rntree/internal/pmem"
	"rntree/internal/ycsb"
)

// forestThreads is the fixed thread count of the forestscale experiment:
// the 8-thread point is where the paper's scalability plots (Figure 8)
// separate designs, and the acceptance bar for partitioning is set there.
const forestThreads = 8

// forestPartitionSweep is the partition-count axis.
var forestPartitionSweep = []int{1, 2, 4, 8}

// ForestScale measures what partitioning buys at fixed parallelism: mixed
// single-key workload (25% each read/update/insert/remove, the §6.2.4 mix),
// 8 threads, Optane-DIMM latencies, throughput as the forest grows from one
// partition (exactly the single-tree configuration: one arena, one HTM
// domain, one fallback lock) to eight.
//
// A single RNTree already scales its compute: HTM keeps non-conflicting
// writers parallel, so under uniform keys the HTM columns stay at zero all
// the way down this table. What a single tree cannot shard is its *device*:
// every persist drains through one arena — one DIMM's write-pending queue —
// and under ProfileOptaneDIMM those drains queue. Hash-partitioning puts
// each partition on its own arena, multiplying persist bandwidth with
// partition count; the throughput column climbing while the HTM conflict
// columns stay flat shows the win is persist-bandwidth sharding, not lock
// splitting. (Skewed workloads add the second effect — per-partition
// fallback locks — on top.)
func ForestScale(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:    "forestscale",
		Title: "forest throughput (Mops/s), 8 threads, mixed workload, Optane latencies, vs partitions",
		Header: []string{
			"partitions", "mops", "vs-1p", "persists", "htm-commits", "htm-conflicts", "htm-fallbacks", "read-retries",
		},
	}
	base := -1.0
	for _, p := range forestPartitionSweep {
		f := newWarmForest(c, p)
		w := ycsb.Workload{Mix: ycsb.MixedQuarter, Chooser: ycsb.Uniform{N: c.Scale}}
		f.ResetStats()
		// Median of three windows: the sweep compares points against each
		// other, so per-point noise on a shared host directly distorts the
		// speedup column.
		mops := median3(func() float64 {
			return runThroughput(f, w, forestThreads, c.Duration, c.Seed, c.Scale)
		})
		if base < 0 {
			base = mops
		}
		st := f.Stats()
		f.Close()
		collectArenas()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", p), f3(mops), f2(mops / base),
			fmt.Sprintf("%d", st.Persists),
			fmt.Sprintf("%d", st.HTM.Commits),
			fmt.Sprintf("%d", st.HTM.ConflictAborts),
			fmt.Sprintf("%d", st.HTM.Fallbacks),
			fmt.Sprintf("%d", st.ReadRetries),
		})
	}
	res.Notes = append(res.Notes,
		"partitions=1 is the single-tree baseline: same code path, one arena/HTM domain/fallback lock",
		fmt.Sprintf("mixed workload: %d%% read / %d%% update / %d%% insert / %d%% remove, uniform keys over the warm set",
			ycsb.MixedQuarter.Read, ycsb.MixedQuarter.Update, ycsb.MixedQuarter.Insert, ycsb.MixedQuarter.Remove),
		fmt.Sprintf("latency profile: Optane DCPMM with per-DIMM drain (flush %v/line, fence %v, drain %v/line, %d stream/arena)",
			pmem.ProfileOptaneDIMM.FlushPerLine, pmem.ProfileOptaneDIMM.Fence,
			pmem.ProfileOptaneDIMM.DrainPerLine, 1),
		"each partition arena models one DIMM: persists to the same arena queue on its drain engine, persists to different arenas drain in parallel")
	if n := len(res.Rows); n > 0 && base > 0 {
		last := res.Rows[n-1]
		ratio := mustF(last[1]) / base
		note := fmt.Sprintf("%s partitions reach %sx the single-tree throughput at %d threads",
			last[0], f2(ratio), forestThreads)
		if ratio < 1.5 {
			note += " — BELOW the 1.5x acceptance bar"
		}
		res.Notes = append(res.Notes, note)
	}
	return []Result{res}
}

// newWarmForest builds a DualSlot forest with p partitions under Optane
// latencies and pre-loads the warm set.
func newWarmForest(c Config, p int) *forest.Forest {
	f, err := forest.New(forest.Options{
		Partitions: p,
		// The warm set plus 256 MiB of insert slack, split across the
		// partitions, and one growth segment each: the forest reserves the
		// same total at every point of the sweep instead of p times as much.
		ArenaSize:   (c.Scale*256 + (256 << 20)) / uint64(p),
		MaxSegments: 2,
		Latency:     pmem.ProfileOptaneDIMM,
		Tree:        core.Options{DualSlot: true},
	})
	if err != nil {
		panic(err)
	}
	if err := Warm(f, KindRNTreeDS, c.Scale); err != nil {
		panic(err)
	}
	return f
}
