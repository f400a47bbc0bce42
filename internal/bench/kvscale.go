package bench

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rntree/kv"
)

// KVScale is the kv-layer analogue of Figure 8: a thread sweep of Put
// throughput on the byte-string store, comparing the sharded value log
// (every shard has its own persisted chunk chain, append cursor and lock)
// against a single-shard configuration — which is exactly the old design,
// one global writer lock held across every record persist.
//
// The paper's §3.4 point transfers one layer up: as long as slow persists
// happen under one lock, adding writers cannot add throughput; sharding
// the log lets the persist stalls of independent writers overlap.
func KVScale(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "kvscale",
		Title:  "kv store Put throughput (Mops/s) vs threads: sharded value log vs single writer log",
		Header: []string{"threads", "sharded", "single-log", "sharded/single"},
	}
	base := -1.0
	for _, th := range c.Threads {
		sharded := kvPutThroughput(c, 0, th) // 0 = default shard count
		single := kvPutThroughput(c, 1, th)
		if base < 0 {
			base = sharded
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", th), f3(sharded), f3(single), f2(sharded / single),
		})
	}
	res.Notes = append(res.Notes,
		"single-log = Shards:1, the pre-sharding design: one mutex held across record persists serializes all writers",
		"sharded Put overlaps the record persist of one writer with every other shard's work; the RNTree index is already concurrent via HTM slot updates")
	if len(res.Rows) > 0 && base > 0 {
		last := res.Rows[len(res.Rows)-1]
		res.Notes = append(res.Notes, fmt.Sprintf(
			"sharded scaling: %s threads reach %sx the single-thread sharded throughput", last[0],
			f2(mustF(last[1])/base)))
	}
	return []Result{res}
}

func mustF(s string) float64 {
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// kvPutThroughput drives threads writers inserting distinct keys for the
// configured duration and returns Mops/s. shards==0 uses the store's
// default sharding.
func kvPutThroughput(c Config, shards, threads int) float64 {
	s, err := kv.New(kv.Options{
		ArenaSize: 256 << 20,
		// No growth: a writer that exhausts the arena stops and the point
		// counts what completed, so reserving seven more segments per image
		// only inflates the footprint.
		MaxSegments:  1,
		ChunkSize:    1 << 20,
		Shards:       shards,
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
