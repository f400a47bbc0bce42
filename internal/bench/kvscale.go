package bench

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rntree/internal/pmem"
	"rntree/kv"
)

// KVScale is the kv-layer analogue of Figure 8: a thread sweep of Put
// throughput on the byte-string store, comparing a partitioned store (every
// partition has its own arena, value log and commit lock) against a single
// partition — one writer lock held across every record persist — under the
// flag profile and under pmem.ProfileOptaneDIMM, where each arena is one
// drain engine.
//
// The paper's §3.4 point transfers one layer up: as long as slow persists
// happen under one lock, adding writers cannot add throughput; partitioning
// the store lets the persist stalls of independent writers overlap.
func KVScale(c Config) []Result {
	c = c.normalized()
	var out []Result
	for _, prof := range []struct {
		name string
		lat  pmem.LatencyModel
	}{{"flag profile", c.Latency}, {"ProfileOptaneDIMM", pmem.ProfileOptaneDIMM}} {
		c.Latency = prof.lat
		res := Result{
			ID:     "kvscale",
			Title:  "kv store Put throughput (Mops/s) vs threads, " + prof.name + ": 8 partitions vs 1",
			Header: []string{"threads", "8-partitions", "1-partition", "8p/1p"},
		}
		for _, th := range c.Threads {
			parted := kvPutThroughput(c, 8, th)
			single := kvPutThroughput(c, 1, th)
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%d", th), f3(parted), f3(single), f2(parted / single),
			})
		}
		res.Notes = append(res.Notes,
			"1-partition: one value log, one mutex held across record persists serializes all writers",
			"8-partitions: a writer's record persist overlaps every other partition's work (own arena, drain engine and lock); the RNTree index is already concurrent via HTM slot updates")
		out = append(out, res)
	}
	return out
}

func mustF(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// kvPutThroughput drives threads writers inserting distinct keys into a
// store of parts partitions for the configured duration and returns Mops/s.
func kvPutThroughput(c Config, parts, threads int) float64 {
	s, err := kv.New(kv.Options{
		ArenaSize: 256 << 20,
		// No growth: a writer that exhausts the arena stops and the point
		// counts what completed, so reserving seven more segments per image
		// only inflates the footprint.
		MaxSegments:  1,
		ChunkSize:    1 << 20,
		Partitions:   parts,
		FlushLatency: c.Latency,
	})
	if err != nil {
		panic(err)
	}
	defer collectArenas()
	defer s.Close()
	val := make([]byte, 256)
	counters := make([]opsCounter, threads)
	var start, stop sync.WaitGroup
	begin := make(chan struct{})
	start.Add(threads)
	stop.Add(threads)
	deadline := new(atomic.Int64)
	for t := 0; t < threads; t++ {
		go func(t int) {
			defer stop.Done()
			prefix := fmt.Sprintf("t%02d-", t)
			key := make([]byte, 0, 32)
			start.Done()
			<-begin
			ops := uint64(0)
			for {
				if ops&0x3f == 0 && time.Now().UnixNano() >= deadline.Load() {
					break
				}
				key = strconv.AppendUint(append(key[:0], prefix...), ops, 10)
				if err := s.Put(key, val); err != nil {
					break // arena exhausted; count what completed
				}
				ops++
			}
			counters[t].n.Store(ops)
		}(t)
	}
	start.Wait()
	t0 := time.Now()
	deadline.Store(t0.Add(c.Duration).UnixNano())
	close(begin)
	stop.Wait()
	elapsed := time.Since(t0).Seconds()
	var total uint64
	for i := range counters {
		total += counters[i].n.Load()
	}
	return float64(total) / elapsed / 1e6
}
