// Command rnserved serves the RNTree partitioned kv store over TCP with
// the pipelined binary protocol in internal/wire. It is the network face
// of the durability story: every acknowledged PUT is persisted (value-log
// record flushed and fenced) before the response frame leaves the box, and
// a SIGINT/SIGTERM drains in-flight requests, checkpoints the store, and
// verifies the checkpoint reopens via the fast reconstruction path before
// exiting — the same contract the rnkv shell makes, at network scale.
//
// Usage:
//
//	rnserved [-addr :4410] [-partitions 4] [-arena-mb 512] [-dualslot]
//	         [-batch-max 64]
//	         [-cache] [-cache-entries 65536] [-obj]
//	         [-repl] [-replica-of addr] [-repl-durable-timeout 5s] [-repl-fence-lease 0]
//	         [-max-conns 256] [-max-inflight 64] [-max-global 1024]
//	         [-idle-timeout 2m] [-flush-ns 0] [-fence-ns 0]
//	         [-debug-addr host:port]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rntree/internal/drain"
	"rntree/internal/obj"
	"rntree/internal/pmem"
	"rntree/internal/repl"
	"rntree/internal/server"
	"rntree/kv"
)

// config is the parsed flag set, separated from flag.Parse for testing.
type config struct {
	addr       string
	partitions int
	arenaMB    uint64
	dualslot   bool

	batchMax int

	cache        bool
	cacheEntries int

	obj              bool
	repl             bool
	replicaOf        string
	replDurableTmout time.Duration
	replFenceLease   time.Duration

	maxConns    int
	maxInflight int
	maxGlobal   int
	idleTimeout time.Duration

	flushNs, fenceNs int64

	drainTimeout time.Duration

	debugAddr string
}

func parseFlags(args []string, errw io.Writer) (config, error) {
	fs := flag.NewFlagSet("rnserved", flag.ContinueOnError)
	fs.SetOutput(errw)
	var c config
	fs.StringVar(&c.addr, "addr", ":4410", "listen address")
	fs.IntVar(&c.partitions, "partitions", 4, "hash partitions (power of two)")
	fs.Uint64Var(&c.arenaMB, "arena-mb", 512, "total simulated NVM capacity in MiB")
	fs.BoolVar(&c.dualslot, "dualslot", true, "use the RNTree+DS index variant")
	fs.IntVar(&c.batchMax, "batch-max", 64, "max PUTs and DELs a partition's group committer coalesces into one commit")
	fs.BoolVar(&c.cache, "cache", false, "front GETs with the epoch-validated DRAM hot-key cache")
	fs.IntVar(&c.cacheEntries, "cache-entries", 65536, "hot-key cache capacity (size to the GET working set; an undersized cache thrashes)")
	fs.BoolVar(&c.obj, "obj", false, "enable typed objects (HSET/SADD/EXPIRE verb family) on the reserved 0x01 namespace")
	fs.BoolVar(&c.repl, "repl", false, "enable replication (serve as primary; replicas may subscribe)")
	fs.StringVar(&c.replicaOf, "replica-of", "", "run as a replica of the primary at this address (implies -repl)")
	fs.DurationVar(&c.replDurableTmout, "repl-durable-timeout", 5*time.Second, "max wait for replica durability on a durable PUT")
	fs.DurationVar(&c.replFenceLease, "repl-fence-lease", 0, "fence writes (read-only) after all replicas have been gone this long; 0 disables")
	fs.IntVar(&c.maxConns, "max-conns", 256, "max concurrent connections")
	fs.IntVar(&c.maxInflight, "max-inflight", 64, "max pipelined requests per connection")
	fs.IntVar(&c.maxGlobal, "max-global", 1024, "max in-flight requests across all connections (excess rejected)")
	fs.DurationVar(&c.idleTimeout, "idle-timeout", 2*time.Minute, "reap connections idle this long")
	fs.Int64Var(&c.flushNs, "flush-ns", 0, "simulated per-line flush latency (ns)")
	fs.Int64Var(&c.fenceNs, "fence-ns", 0, "simulated per-persist fence latency (ns)")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "serve net/http/pprof under /debug/pprof/ on this address, a listener of its own; empty disables")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	// No count, capacity or duration here means anything below zero, and
	// several of them size a channel or a ticker further down.
	var err error
	fs.Visit(func(f *flag.Flag) {
		var negative bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			negative = v < 0
		case int64:
			negative = v < 0
		case time.Duration:
			negative = v < 0
		}
		if negative && err == nil {
			err = fmt.Errorf("invalid value %q for flag -%s: must not be negative", f.Value, f.Name)
		}
	})
	if err != nil {
		fmt.Fprintf(errw, "rnserved: %v\n", err)
		return config{}, err
	}
	return c, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := serve(cfg, drain.New(sig), os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rnserved: %v\n", err)
		os.Exit(1)
	}
}

// serve runs the store + server until the drain watcher trips, then takes
// the clean shutdown path: drain connections, checkpoint, verify the
// checkpoint reopens. Split from main for testing.
// minCacheEntries is the floor the -cache-entries flag is clamped to.
// Below it the hot-key cache thrashes: entries are evicted before their
// epoch validation ever pays off, so every GET does the cache bookkeeping
// and still walks the tree — measurably slower than -cache=false.
const minCacheEntries = 4096

func serve(cfg config, w *drain.Watcher, out io.Writer) error {
	if cfg.cache && cfg.cacheEntries < minCacheEntries {
		fmt.Fprintf(out, "rnserved: -cache-entries %d is below the useful floor; clamping to %d (an undersized cache is slower than no cache)\n",
			cfg.cacheEntries, minCacheEntries)
		cfg.cacheEntries = minCacheEntries
	}
	st, err := kv.New(kv.Options{
		ArenaSize:     cfg.arenaMB << 20,
		Partitions:    cfg.partitions,
		DualSlotArray: cfg.dualslot,
		FlushLatency: pmem.LatencyModel{
			FlushPerLine: time.Duration(cfg.flushNs),
			Fence:        time.Duration(cfg.fenceNs),
		},
	})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}

	// Replication: -replica-of makes this node a replica pulling from the
	// named primary; -repl alone makes it a primary replicas can subscribe
	// to. Either way the persisted role wins over the flags on reopen, so a
	// promoted replica restarted with its old flags stays primary.
	var node *repl.Node
	if cfg.repl || cfg.replicaOf != "" {
		role := uint8(repl.Primary)
		if cfg.replicaOf != "" {
			role = repl.Replica
		}
		node, err = repl.NewNode(st, role)
		if err != nil {
			return fmt.Errorf("repl: %w", err)
		}
		if node.Role() == repl.Replica && cfg.replicaOf != "" {
			go func() {
				if err := node.RunApplier(repl.ApplierConfig{Addr: cfg.replicaOf}); err != nil {
					fmt.Fprintf(os.Stderr, "rnserved: applier: %v\n", err)
				}
			}()
		}
	}

	// Typed objects: the layer attaches read-only on a replica (expired keys
	// are masked but never reaped or swept; the primary's stream carries every
	// composite's header) and is flipped to primary mode by a PROMOTE. The
	// server wires the replication apply hook itself.
	var ost *obj.Store
	if cfg.obj {
		ost, err = obj.Attach(st, obj.Options{ReadOnly: node != nil && node.Role() == repl.Replica})
		if err != nil {
			return fmt.Errorf("obj: %w", err)
		}
	}

	srv := server.New(st, server.Config{
		MaxConns:          cfg.maxConns,
		MaxInflight:       cfg.maxInflight,
		MaxGlobalInflight: cfg.maxGlobal,
		IdleTimeout:       cfg.idleTimeout,
		Batch:             server.BatchConfig{MaxBatch: cfg.batchMax},
		Cache: server.CacheConfig{
			Enable:     cfg.cache,
			MaxEntries: cfg.cacheEntries,
		},
		Obj:                ost,
		Repl:               node,
		ReplDurableTimeout: cfg.replDurableTmout,
		ReplFenceLease:     cfg.replFenceLease,
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	replDesc := "off"
	if node != nil {
		replDesc = fmt.Sprintf("role=%d epoch=%d", node.Role(), node.Epoch())
	}
	fmt.Fprintf(out, "rnserved: serving on %s (partitions=%d arena=%dMiB batch-max=%d cache=%v obj=%v repl=%s)\n",
		ln.Addr(), cfg.partitions, cfg.arenaMB, cfg.batchMax, cfg.cache, cfg.obj, replDesc)

	if cfg.debugAddr != "" {
		// The profile endpoint gets a listener and a mux of its own: the KV
		// port speaks only the wire protocol, and nothing else this process
		// may register on http.DefaultServeMux is exposed with it.
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listen: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv := &http.Server{Handler: mux}
		go dsrv.Serve(dln)
		defer dsrv.Close() // the drain path below, or a dead KV listener
		fmt.Fprintf(out, "rnserved: pprof on http://%s/debug/pprof/\n", dln.Addr())
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	select {
	case <-w.Done():
	case err := <-serveDone:
		// Listener died without a drain trigger: real failure.
		return fmt.Errorf("serve: %w", err)
	}

	fmt.Fprintln(out, "rnserved: signal received, draining")
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveDone; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if node != nil {
		node.Close()
	}
	if ost != nil {
		// Stop the expirer's timer before checkpointing so no reap commits
		// race the quiesced image.
		ost.Close()
	}

	// The drain guaranteed quiescence, so the clean checkpoint path must
	// succeed; verifying the reopen here means an interrupted server never
	// leaves crash recovery as the only way back in.
	imgs, err := st.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	st2, err := kv.Open(imgs, kv.Options{})
	if err != nil {
		return fmt.Errorf("checkpoint did not reopen: %w", err)
	}
	fmt.Fprintf(out, "rnserved: clean shutdown, %d live keys checkpointed (reconstructed, not crash-recovered)\n",
		st2.Stats().LiveKeys)
	return nil
}
