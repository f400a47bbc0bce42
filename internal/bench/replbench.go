package bench

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rntree/client"
	"rntree/internal/fault"
	"rntree/internal/hist"
	"rntree/internal/pmem"
	"rntree/internal/repl"
	"rntree/internal/server"
	"rntree/kv"
)

// replParts keeps the pair small: the ship stream serialises per
// subscriber anyway, so extra partitions only add fence lanes the single
// applier connection cannot use.
const replParts = 4

// replValSize matches netbench's 2 KiB PUT payload so the async row is
// directly comparable to the unreplicated netbench sweep.
const replValSize = 2048

// replFailoverWrites is the acked-durable write count the failover phase
// seeds before killing the primary; every one of them must be served by
// the promoted replica.
const replFailoverWrites = 200

// ReplBench measures the replication tentpole end to end: a primary and a
// replica server on loopback with the replica's applier subscribed over
// the same wire protocol clients use.
//
// Three phases:
//
//   - Throughput: pipelined PUTs in async mode (ack after the local
//     commit; the ship stream trails) vs wait-for-replica-durable mode
//     (the ack is held until the replica's cumulative ack covers the
//     record's LSN). The gap prices the durability upgrade: async costs
//     nothing over an unreplicated server, durable pays one ship+ack
//     round trip amortised over the ack batch.
//   - Failover: kill the primary mid-session and time how long the
//     failover client takes to elect + promote the replica and land its
//     next write; every previously acked durable write must be served by
//     the new primary.
//   - Crash matrix: the two-node fault explorer (primary killed at each
//     of its persist sites, replica killed mid-apply, a crash inside the
//     promotion cutover) — the `violations` column is the acceptance
//     gate and anything nonzero fails the rnbench run.
func ReplBench(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "replbench",
		Title:  "primary/replica replication: async vs replica-durable PUTs, failover time, crash matrix",
		Header: []string{"phase", "kops", "p50_us", "p99_us", "sites", "violations", "detail"},
	}

	for _, durable := range []bool{false, true} {
		name := "put-async"
		detail := "ack after local commit; ship stream trails and healed to zero lag at drain"
		if durable {
			name = "put-durable"
			detail = "ack held for the replica's cumulative ack to cover the record's LSN"
		}
		kops, h, err := runReplWindow(c, durable)
		if err != nil {
			res.Rows = append(res.Rows, []string{name, "-", "-", "-", "-", "-", "-"})
			res.Notes = append(res.Notes, fmt.Sprintf("harness error: %s: %v", name, err))
			continue
		}
		res.Rows = append(res.Rows, []string{
			name, f2(kops),
			fmt.Sprint(h.Percentile(50).Microseconds()),
			fmt.Sprint(h.Percentile(99).Microseconds()),
			"-", "-", detail,
		})
	}

	if ms, survived, err := runReplFailover(c); err != nil {
		res.Rows = append(res.Rows, []string{"failover", "-", "-", "-", "-", "-", "-"})
		res.Notes = append(res.Notes, fmt.Sprintf("harness error: failover: %v", err))
	} else {
		lost := replFailoverWrites - survived
		// The failover row's latency columns hold its one sample: the
		// kill-to-first-successful-write time.
		res.Rows = append(res.Rows, []string{
			"failover", "-",
			fmt.Sprint(int64(ms * 1e3)), fmt.Sprint(int64(ms * 1e3)),
			"-", fmt.Sprint(lost),
			fmt.Sprintf("primary killed; client elected+promoted the replica and landed a write in %.1fms; %d/%d acked durable writes survived",
				ms, survived, replFailoverWrites),
		})
		if lost != 0 {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"failover: VIOLATION: %d acked durable writes lost across promotion", lost))
		}
	}

	reps, err := fault.ExploreFailover(fault.KVWorkload(), fault.Config{
		Seed:      c.Seed,
		MaxSites:  c.FaultMaxSites,
		EvictProb: 0.4,
		Torn:      true,
	})
	if err != nil {
		res.Notes = append(res.Notes, fmt.Sprintf("harness error: crash matrix: %v", err))
	}
	for _, rep := range reps {
		res.Rows = append(res.Rows, []string{
			"crash/" + rep.Target, "-", "-", "-",
			fmt.Sprint(rep.Sites), fmt.Sprint(len(rep.Violations)),
			fmt.Sprintf("%d explored, %d images, hash %#x", rep.Explored, rep.Images, rep.ImageHash),
		})
		for i, v := range rep.Violations {
			if i == 3 {
				res.Notes = append(res.Notes, fmt.Sprintf("%s: ... %d more violations", rep.Target, len(rep.Violations)-i))
				break
			}
			res.Notes = append(res.Notes, fmt.Sprintf("%s: VIOLATION %s", rep.Target, v))
		}
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("pair: %d partitions per node, %d KiB values, applier acks every 8 records or 1ms", replParts, replValSize/1024),
		"throughput phases: 2 connections x depth 8 against the primary; the replica applies the shipped stream live",
		"the machine-wide two-node crash target (both nodes' arenas) runs in faultmatrix as kv/repl-pair",
		fmt.Sprintf("crash matrix: seed=%d evictProb=0.4 torn=on; oracle: survivor holds every acked write, dead node recovers to a prefix-consistent cut", c.Seed),
	)
	return []Result{res}
}

// replPairHarness is one live primary+replica deployment on loopback.
type replPairHarness struct {
	pst, rst     *kv.Store
	pNode, rNode *repl.Node
	psrv, rsrv   *server.Server
	pDone, rDone chan error
	applierDone  chan error
	pAddr, rAddr string
	stopOnce     sync.Once
}

func replBenchOpts(c Config) kv.Options {
	return kv.Options{
		// ~26 MiB/s of 2 KiB records per node on the reference host: the
		// initial arenas cover a 4 s window and one growth segment per
		// partition doubles that, on each of the pair's four images.
		ArenaSize:    128 << 20,
		MaxSegments:  2,
		ChunkSize:    1 << 20,
		Partitions:   replParts,
		FlushLatency: pmem.ProfileOptaneDIMM,
	}
}

func startReplHarness(c Config, pcfg, rcfg server.Config) (*replPairHarness, error) {
	h := &replPairHarness{
		pDone:       make(chan error, 1),
		rDone:       make(chan error, 1),
		applierDone: make(chan error, 1),
	}
	var err error
	if h.pst, err = kv.New(replBenchOpts(c)); err != nil {
		return nil, err
	}
	if h.pNode, err = repl.NewNode(h.pst, repl.Primary); err != nil {
		return nil, err
	}
	pcfg.Repl = h.pNode
	h.psrv = server.New(h.pst, pcfg)
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.pAddr = pln.Addr().String()
	go func() { h.pDone <- h.psrv.Serve(pln) }()

	if h.rst, err = kv.New(replBenchOpts(c)); err != nil {
		return nil, err
	}
	if h.rNode, err = repl.NewNode(h.rst, repl.Replica); err != nil {
		return nil, err
	}
	rcfg.Repl = h.rNode
	h.rsrv = server.New(h.rst, rcfg)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.rAddr = rln.Addr().String()
	go func() { h.rDone <- h.rsrv.Serve(rln) }()

	go func() {
		h.applierDone <- h.rNode.RunApplier(repl.ApplierConfig{
			Addr:        h.pAddr,
			AckEvery:    8,
			AckInterval: time.Millisecond,
		})
	}()
	return h, nil
}

// stop drains both servers (the primary's drain flushes the ship stream)
// and waits for the applier to exit. Idempotent: runReplWindow stops
// explicitly to check convergence but also defers it for error paths.
func (h *replPairHarness) stop() {
	h.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		h.psrv.Shutdown(ctx)
		<-h.pDone
		h.rsrv.Shutdown(ctx)
		<-h.rDone
		h.rNode.Close()
		h.pNode.Close()
		select {
		case <-h.applierDone:
		case <-time.After(5 * time.Second):
		}
		h.rst.Close()
		h.pst.Close()
	})
}

// runReplWindow measures replicated PUT throughput for one ack mode.
func runReplWindow(c Config, durable bool) (float64, *hist.Histogram, error) {
	h, err := startReplHarness(c, server.Config{}, server.Config{})
	if err != nil {
		return 0, nil, err
	}
	defer h.stop()

	const conns, depth = 2, 8
	lat := &hist.Histogram{}
	var ops, errs atomic.Uint64
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*client.Client, conns)
	for ci := range clients {
		cl, err := client.Dial(h.pAddr, client.Options{MaxInflight: depth})
		if err != nil {
			return 0, nil, err
		}
		clients[ci] = cl
	}
	for ci, cl := range clients {
		for wk := 0; wk < depth; wk++ {
			wg.Add(1)
			go func(cl *client.Client, ci, wk int) {
				defer wg.Done()
				val := make([]byte, replValSize)
				for i := range val {
					val[i] = byte('a' + i%26)
				}
				prefix := fmt.Sprintf("c%d-w%d-", ci, wk)
				for i := uint64(0); ; i++ {
					select {
					case <-stopc:
						return
					default:
					}
					key := strconv.AppendUint([]byte(prefix), i, 10)
					t0 := time.Now()
					var err error
					if durable {
						err = cl.PutDurable(key, val)
					} else {
						err = cl.Put(key, val)
					}
					lat.Record(time.Since(t0))
					if err != nil {
						errs.Add(1)
						return
					}
					ops.Add(1)
				}
			}(cl, ci, wk)
		}
	}

	// Same warmup rationale as netbench: fresh-arena faults, tree growth,
	// and (here) the applier's catch-up pass are one-time costs.
	time.Sleep(netWarmup)
	lat.Reset()
	ops.Store(0)
	start := time.Now()
	window := c.Duration
	if window < netMinWindow {
		window = netMinWindow
	}
	time.Sleep(window)
	close(stopc)
	wg.Wait()
	elapsed := time.Since(start)
	for _, cl := range clients {
		cl.Close()
	}
	if n := errs.Load(); n > 0 {
		return 0, nil, fmt.Errorf("%d failed PUTs", n)
	}

	// The drain in stop() flushes the ship stream; verify the replica
	// really caught up so the async number isn't hiding an unbounded lag.
	h.stop()
	for part := 0; part < h.pst.Partitions(); part++ {
		if h.rst.ReplLSN(part) != h.pst.ReplLSN(part) {
			return 0, nil, fmt.Errorf("partition %d: replica watermark %d, primary %d after drain",
				part, h.rst.ReplLSN(part), h.pst.ReplLSN(part))
		}
	}
	return float64(ops.Load()) / elapsed.Seconds() / 1e3, lat, nil
}

// runReplFailover seeds acked durable writes, kills the primary, and times
// the failover client's election + promotion + first successful write.
// Returns the recovery wall time in milliseconds and how many of the acked
// writes the promoted replica serves.
func runReplFailover(c Config) (float64, int, error) {
	h, err := startReplHarness(c, server.Config{}, server.Config{})
	if err != nil {
		return 0, 0, err
	}
	primaryDead := false
	defer func() {
		if !primaryDead {
			h.stop()
			return
		}
		// The primary is already down; drain only the surviving node.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		h.rsrv.Shutdown(ctx)
		cancel()
		<-h.rDone
		h.rNode.Close()
		select {
		case <-h.applierDone:
		case <-time.After(5 * time.Second):
		}
		h.rst.Close()
		h.pst.Close()
	}()

	fo, err := client.DialFailover([]string{h.pAddr, h.rAddr}, client.Options{
		DialTimeout: 200 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		return 0, 0, err
	}
	defer fo.Close()

	for i := 0; i < replFailoverWrites; i++ {
		if err := fo.PutDurable([]byte(fmt.Sprintf("d%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			return 0, 0, fmt.Errorf("seed PutDurable %d: %v", i, err)
		}
	}

	// Kill the primary. Its node is closed too, as a crashed process would
	// drop the ship stream.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	h.psrv.Shutdown(ctx)
	cancel()
	<-h.pDone
	h.pNode.Close()
	primaryDead = true

	t0 := time.Now()
	if err := fo.Put([]byte("post-failover"), []byte("ok")); err != nil {
		return 0, 0, fmt.Errorf("write after primary death: %v", err)
	}
	ms := float64(time.Since(t0).Microseconds()) / 1e3

	survived := 0
	for i := 0; i < replFailoverWrites; i++ {
		v, err := fo.Get([]byte(fmt.Sprintf("d%04d", i)))
		if err == nil && string(v) == fmt.Sprintf("v%d", i) {
			survived++
		}
	}
	return ms, survived, nil
}
