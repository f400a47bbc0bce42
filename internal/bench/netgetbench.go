package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rntree/client"
	"rntree/internal/hist"
	"rntree/internal/pmem"
	"rntree/internal/server"
	"rntree/internal/ycsb"
	"rntree/kv"
)

// netGetPoint is one cell of the GET sweep: a connection/depth shape run
// with the hot-key cache off and then on.
type netGetPoint struct {
	conns, depth int
	cache        bool
}

// netGetSweep pairs each shape with its cache-off contrast row, so the
// cache's p50/p99 contribution is read directly off adjacent rows.
var netGetSweep = []netGetPoint{
	{1, 16, false}, {1, 16, true},
	{4, 16, false}, {4, 16, true},
}

const (
	// netGetKeys is the preloaded key population the zipf chooser ranks
	// over. Even with the ample cache below, zipf-0.8 PUT invalidations
	// keep the hit rate near 90% rather than 100%, so the measured rows
	// are a steady state of hits, invalidations and epoch-guarded
	// re-fills — not a frozen fully-resident corpus.
	netGetKeys = 16384
	// netGetCacheEntries sizes the cache generously (2x the population).
	// Sizing it BELOW the population was measured on this harness and
	// made the cache a net loss: at theta 0.8 a 4096-entry cache misses
	// ~45% of lookups, and every such miss pays an evict + fill (shard
	// lock, map churn, allocation) for an entry that is usually evicted
	// again before it is ever hit. DRAM-side caches in front of NVM only
	// pay off sized to their working set; the sweep measures that
	// configuration, and the notes record the undersized result.
	netGetCacheEntries = 1 << 15
	// netGetValSize keeps GETs cheap enough that the per-request serving
	// overhead (route, tree walk, chain read) the cache removes is a large
	// fraction of each op — the effect under measurement — while PUTs stay
	// a realistic few lines of persist.
	netGetValSize = 512
	// netGetPutPct is the mutation share of the mix: GET-heavy (YCSB-B
	// shape), but with enough PUTs that invalidations and re-fills run
	// continuously and a coherence bug would surface as a throughput or
	// correctness anomaly rather than never executing.
	netGetPutPct = 5
)

// NetGetBench measures the read path of the serving layer end to end:
// zipf-0.8 GETs (95%) with a 5% PUT mix over a preloaded population,
// swept over connection shapes with the DRAM hot-key cache off and on.
// Latency is recorded for GETs only — the cache does not touch the PUT
// path beyond an invalidation — and each on-row reports its p50/p99
// against the off-row of the same shape.
func NetGetBench(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:    "netgetbench",
		Title: "serving-layer GET latency (zipf-0.8, 95/5 GET/PUT, loopback) with the hot-key cache off/on",
		Header: []string{
			"conns", "depth", "cache", "get_kops", "p50_us", "p99_us", "hit_pct", "p50_vs_off", "p99_vs_off",
		},
	}
	var offP50, offP99 time.Duration
	for _, pt := range netGetSweep {
		kops, h, hitPct, errs := runNetGetPoint(c, pt)
		p50 := h.Percentile(50)
		p99 := h.Percentile(99)
		onOff, vs50, vs99 := "off", "", ""
		if pt.cache {
			onOff = "on"
			if p50 > 0 {
				vs50 = f2(float64(offP50) / float64(p50))
			}
			if p99 > 0 {
				vs99 = f2(float64(offP99) / float64(p99))
			}
		} else {
			offP50, offP99 = p50, p99
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", pt.conns), fmt.Sprintf("%d", pt.depth), onOff,
			f2(kops),
			fmt.Sprintf("%d", p50.Microseconds()),
			fmt.Sprintf("%d", p99.Microseconds()),
			f2(hitPct),
			vs50, vs99,
		})
		if errs > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("harness error: %d failed ops at %dx%d cache=%v", errs, pt.conns, pt.depth, pt.cache))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d preloaded keys, %d B values; zipf theta 0.8 over ranks (rank 0 hottest); %d%% of ops are PUTs of the same zipf keys", netGetKeys, netGetValSize, netGetPutPct),
		"media model: Optane DCPMM persist costs plus 300ns/line random-read latency on record reads — the NVM cost an uncached GET pays and a DRAM cache hit skips",
		"latency columns are GET-only; PUTs ride along to keep invalidations and epoch-guarded re-fills continuously exercised",
		fmt.Sprintf("cache geometry: %d entries (2x the population), 16 shards; an undersized cache (4096 entries, ~45%% misses) was measured NET-SLOWER than no cache — each thrashing miss pays an evict+fill that rarely gets hit before eviction", netGetCacheEntries),
		"p50_vs_off / p99_vs_off divide the same shape's cache-off latency by this row's (higher = cache faster)",
		fmt.Sprintf("each point warms up for %v before its measurement window opens; hit_pct includes warmup fills", netWarmup),
	)
	return []Result{res}
}

// runNetGetPoint measures one sweep cell: GET throughput (kops/s), the GET
// latency histogram, the cache hit percentage, and failed ops.
func runNetGetPoint(c Config, pt netGetPoint) (float64, *hist.Histogram, float64, uint64) {
	// Optane persist costs plus the media's random-READ latency: an
	// uncached GET pays ~300ns per record line it pulls off the DIMM,
	// which is precisely the cost a DRAM cache hit skips. (netbench leaves
	// ReadPerLine unset — its PUT workload never chain-reads.)
	lat := pmem.ProfileOptaneDIMM
	lat.ReadPerLine = 300 * time.Nanosecond
	st, err := kv.New(kv.Options{
		// The preload is ~10 MiB and the PUT share adds a few MiB/s: the
		// initial arenas outlast a minute-long window, so no growth segments
		// are reserved.
		ArenaSize:    256 << 20,
		MaxSegments:  1,
		ChunkSize:    1 << 20,
		Partitions:   netParts,
		FlushLatency: lat,
	})
	if err != nil {
		panic(fmt.Sprintf("netgetbench: store: %v", err))
	}
	// Preload the whole population in batches so the measurement window
	// starts from a fully resident store (every GET has a value to find).
	val := make([]byte, netGetValSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	const batch = 64
	for base := 0; base < netGetKeys; base += batch {
		n := batch
		if base+n > netGetKeys {
			n = netGetKeys - base
		}
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := 0; i < n; i++ {
			keys[i] = []byte(netGetKey(uint64(base + i)))
			vals[i] = val
		}
		for i, err := range st.PutBatch(keys, vals) {
			if err != nil {
				panic(fmt.Sprintf("netgetbench: preload %s: %v", keys[i], err))
			}
		}
	}

	srv := server.New(st, server.Config{
		Cache: server.CacheConfig{Enable: pt.cache, MaxEntries: netGetCacheEntries},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("netgetbench: listen: %v", err))
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	h := &hist.Histogram{}
	var gets, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*client.Client, pt.conns)
	for ci := range clients {
		cl, err := client.Dial(addr, client.Options{MaxInflight: pt.depth})
		if err != nil {
			panic(fmt.Sprintf("netgetbench: dial: %v", err))
		}
		clients[ci] = cl
	}
	zipf := ycsb.NewZipfian(netGetKeys, 0.8)
	for ci, cl := range clients {
		for wk := 0; wk < pt.depth; wk++ {
			wg.Add(1)
			go func(cl *client.Client, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					key := []byte(netGetKey(zipf.NextRank(rng)))
					if rng.Intn(100) < netGetPutPct {
						if err := cl.Put(key, val); err != nil {
							errs.Add(1)
							return
						}
						continue
					}
					t0 := time.Now()
					_, err := cl.Get(key)
					h.Record(time.Since(t0))
					if err != nil {
						errs.Add(1)
						return
					}
					gets.Add(1)
				}
			}(cl, c.Seed+int64(ci*pt.depth+wk))
		}
	}

	time.Sleep(netWarmup)
	h.Reset()
	gets.Store(0)
	start := time.Now()
	window := c.Duration
	if window < netMinWindow {
		window = netMinWindow
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	for _, cl := range clients {
		cl.Close()
	}
	hitPct := 0.0
	if sv := srv.Stats(); sv.HasCache && sv.Cache.Hits+sv.Cache.Misses > 0 {
		hitPct = 100 * float64(sv.Cache.Hits) / float64(sv.Cache.Hits+sv.Cache.Misses)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx)
	cancel()
	<-serveDone
	st.Close()
	collectArenas()

	return float64(gets.Load()) / elapsed.Seconds() / 1e3, h, hitPct, errs.Load()
}

// netGetKey maps a zipf rank to its store key (rank 0 is the hottest).
func netGetKey(rank uint64) string { return fmt.Sprintf("g%06d", rank) }
