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
	"rntree/internal/hist"
	"rntree/internal/obj"
	"rntree/internal/pmem"
	"rntree/internal/server"
	"rntree/internal/ycsb"
	"rntree/kv"
)

// objThreads is the fixed client parallelism of the sweep: eight workers,
// each on its own connection — the acceptance point of ISSUE 9 ("composite
// throughput >= 0.5x flat PUT at 8 threads").
const objThreads = 8

// objValSize is the field/value payload: 128 B is the Redis-shaped object
// regime (many small fields), as opposed to netbench's 2 KiB pages.
const objValSize = 128

// objWarmup / objMinWindow mirror netbench's settle-then-measure shape at a
// smaller scale (the phases are cheaper to ramp than the 2 KiB PUT sweep).
const (
	objWarmup    = 200 * time.Millisecond
	objMinWindow = 800 * time.Millisecond
)

// objPhase is one row of the sweep. prep runs per worker before the clock
// starts; op is the measured request (seq increments per worker forever).
type objPhase struct {
	name string
	note string
	prep func(w int, cl *client.Client, val []byte) error
	op   func(w int, seq uint64, cl *client.Client, val []byte) error
}

// objPhases: the flat-PUT baseline first (every later row's ratio divides by
// it), then each typed verb isolated, then the ycsb.ObjComposite mix.
//
// hset is the row the acceptance bar reads: every op targets a fresh field
// (4 fields per object name, seq-advancing), so each one is a full intent
// commit — intent record, field record, header rewrite, intent delete — the
// most persist-expensive path the layer has. hset-over rewrites a fixed
// field, which the layer recognizes as header-neutral and commits as a
// single record, bracketing the intent machinery's cost from above and
// below.
var objPhases = []objPhase{
	{
		name: "put-flat",
		note: "baseline: flat durable PUT, same value size",
		op: func(w int, seq uint64, cl *client.Client, val []byte) error {
			return cl.Put(objKey("p", w, seq), val)
		},
	},
	{
		name: "hset",
		note: "composite: every op creates a field (intent + field + header)",
		op: func(w int, seq uint64, cl *client.Client, val []byte) error {
			return cl.HSet(objKey("o", w, seq/4), objField(seq%4), val)
		},
	},
	{
		name: "hset-over",
		note: "overwrite of an existing field (single-record commit)",
		prep: func(w int, cl *client.Client, val []byte) error {
			for f := uint64(0); f < 8; f++ {
				if err := cl.HSet(objKey("u", w, 0), objField(f), val); err != nil {
					return err
				}
			}
			return nil
		},
		op: func(w int, seq uint64, cl *client.Client, val []byte) error {
			return cl.HSet(objKey("u", w, 0), objField(seq%8), val)
		},
	},
	{
		name: "hget",
		note: "field read through the object layer",
		prep: func(w int, cl *client.Client, val []byte) error {
			for f := uint64(0); f < 8; f++ {
				if err := cl.HSet(objKey("u", w, 0), objField(f), val); err != nil {
					return err
				}
			}
			return nil
		},
		op: func(w int, seq uint64, cl *client.Client, val []byte) error {
			_, err := cl.HGet(objKey("u", w, 0), objField(seq%8))
			return err
		},
	},
	{
		name: "sadd",
		note: "composite: every op adds a member (intent + member + header)",
		op: func(w int, seq uint64, cl *client.Client, val []byte) error {
			return cl.SAdd(objKey("s", w, seq/4), objField(seq%4))
		},
	},
	{
		name: "smembers",
		note: "whole-set listing (8 members)",
		prep: func(w int, cl *client.Client, val []byte) error {
			for f := uint64(0); f < 8; f++ {
				if err := cl.SAdd(objKey("z", w, 0), objField(f)); err != nil {
					return err
				}
			}
			return nil
		},
		op: func(w int, seq uint64, cl *client.Client, val []byte) error {
			_, err := cl.SMembers(objKey("z", w, 0))
			return err
		},
	},
	{
		name: "obj-mix",
		note: "ycsb.ObjComposite mix over 512 objects x 8 fields",
		op:   nil, // driven by a ycsb stream, see runObjPhase
	},
}

func objKey(prefix string, w int, n uint64) []byte {
	k := []byte(prefix)
	k = strconv.AppendInt(k, int64(w), 10)
	k = append(k, '-')
	return strconv.AppendUint(k, n, 10)
}

func objField(f uint64) []byte {
	return strconv.AppendUint([]byte("f"), f, 10)
}

// ObjBench measures the typed-object layer end to end over loopback TCP at
// a fixed 8 worker threads: the flat durable PUT as baseline, each object
// verb isolated, and the ycsb.ObjComposite mix. Every row reports its
// throughput ratio against the flat-PUT row; the acceptance bar is the
// `hset` row (a full intent commit per op) holding >= 0.5x flat PUT — i.e.
// crash-consistent multi-record updates cost at most one flat write's
// worth of extra persists once the group committer amortizes the fences.
func ObjBench(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID:     "objbench",
		Title:  "typed-object throughput (kops/s, loopback, 8 threads) vs flat durable PUT",
		Header: []string{"op", "kops", "mean_us", "p50_us", "p99_us", "vs_flat_put"},
	}
	base := -1.0
	barRatio := ""
	for _, ph := range objPhases {
		kops, h, errs := runObjPhase(c, ph)
		if base < 0 {
			base = kops
		}
		ratio := f2(kops / base)
		if ph.name == "hset" {
			barRatio = ratio
		}
		res.Rows = append(res.Rows, []string{
			ph.name, f2(kops),
			fmt.Sprintf("%d", h.Mean().Microseconds()),
			fmt.Sprintf("%d", h.Percentile(50).Microseconds()),
			fmt.Sprintf("%d", h.Percentile(99).Microseconds()),
			ratio,
		})
		res.Notes = append(res.Notes, fmt.Sprintf("%s: %s", ph.name, ph.note))
		if errs > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("harness error: %d failed ops in %s", errs, ph.name))
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d workers, one connection each, %d B values, greedy group committer on, %d partition arenas",
			objThreads, objValSize, netParts),
		fmt.Sprintf("latency profile: Optane DCPMM (flush %v/line, fence %v, drain %v/line)",
			pmem.ProfileOptaneDIMM.FlushPerLine, pmem.ProfileOptaneDIMM.Fence, pmem.ProfileOptaneDIMM.DrainPerLine),
	)
	if barRatio != "" {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"composite hset reaches %sx the flat durable PUT rate (acceptance bar: >= 0.5x)", barRatio))
	}
	return []Result{res}
}

// runObjPhase measures one row: fresh store + object layer + server, 8
// workers each on their own connection, warmup then a fixed window.
func runObjPhase(c Config, ph objPhase) (float64, *hist.Histogram, uint64) {
	st, err := kv.New(kv.Options{
		// 64 MiB per partition: the 128 B-value phases write a few MiB per
		// window even at full rate, and smaller arenas keep the per-phase
		// setup/teardown (zeroing both crash images) cheap.
		ArenaSize:    64 << 20,
		MaxSegments:  2,
		ChunkSize:    1 << 20,
		Partitions:   netParts,
		FlushLatency: pmem.ProfileOptaneDIMM,
	})
	if err != nil {
		panic(fmt.Sprintf("objbench: store: %v", err))
	}
	o, err := obj.Attach(st, obj.Options{})
	if err != nil {
		panic(fmt.Sprintf("objbench: obj: %v", err))
	}
	srv := server.New(st, server.Config{Obj: o})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("objbench: listen: %v", err))
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	h := &hist.Histogram{}
	var ops, errs atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	clients := make([]*client.Client, objThreads)
	for w := range clients {
		cl, err := client.Dial(addr, client.Options{})
		if err != nil {
			panic(fmt.Sprintf("objbench: dial: %v", err))
		}
		clients[w] = cl
	}
	for w, cl := range clients {
		wg.Add(1)
		go func(w int, cl *client.Client) {
			defer wg.Done()
			val := make([]byte, objValSize)
			for i := range val {
				val[i] = byte('a' + i%26)
			}
			if ph.prep != nil {
				if err := ph.prep(w, cl, val); err != nil {
					errs.Add(1)
					return
				}
			}
			op := ph.op
			if op == nil {
				op = objMixOp(c.Seed + int64(w))
			}
			for seq := uint64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				err := op(w, seq, cl, val)
				h.Record(time.Since(t0))
				if err != nil {
					errs.Add(1)
					return
				}
				ops.Add(1)
			}
		}(w, cl)
	}

	time.Sleep(objWarmup)
	h.Reset()
	ops.Store(0)
	start := time.Now()
	window := c.Duration
	if window < objMinWindow {
		window = objMinWindow
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	for _, cl := range clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	srv.Shutdown(ctx)
	cancel()
	<-serveDone
	o.Close()
	st.Close()
	collectArenas()

	return float64(ops.Load()) / elapsed.Seconds() / 1e3, h, errs.Load()
}

// objMixOp drives one worker's slice of the ycsb.ObjComposite mix over a
// shared population of 512 hash names and 512 set names with 8 fields each.
// Not-found reads and expire-refreshes on absent names still count as
// executed ops, matching the flat-workload convention in execute().
func objMixOp(seed int64) func(w int, seq uint64, cl *client.Client, val []byte) error {
	stream := ycsb.Workload{
		Mix:     ycsb.ObjComposite,
		Chooser: ycsb.Uniform{N: 512},
		Fields:  8,
	}.Stream(seed)
	return func(w int, seq uint64, cl *client.Client, val []byte) error {
		req := stream()
		name := strconv.AppendUint([]byte("mh"), req.Key%512, 10)
		sname := strconv.AppendUint([]byte("ms"), req.Key%512, 10)
		var err error
		switch req.Op {
		case ycsb.OpHSet:
			err = cl.HSet(name, objField(req.Field), val)
		case ycsb.OpHGet:
			_, err = cl.HGet(name, objField(req.Field))
		case ycsb.OpSAdd:
			err = cl.SAdd(sname, objField(req.Field))
		case ycsb.OpSMembers:
			_, err = cl.SMembers(sname)
		case ycsb.OpExpire:
			err = cl.Expire(name, 60_000)
		}
		if err == client.ErrNotFound {
			err = nil
		}
		return err
	}
}
