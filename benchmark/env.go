package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rntree/client"
	"rntree/internal/core"
	"rntree/internal/forest"
	"rntree/internal/obj"
	"rntree/internal/pmem"
	"rntree/internal/repl"
	"rntree/internal/server"
	"rntree/internal/tree"
	"rntree/kv"
)

// node is one served store: the kv store, the layers attached to it, and
// the server in front.
type node struct {
	st    *kv.Store
	objs  *obj.Store
	rnode *repl.Node
	srv   *server.Server
	addr  string
	done  chan error // Serve's return
}

// env is the system under test for one run: either a bare tree, or a
// primary (and for repl workloads a replica) with client connections.
type env struct {
	wl        *workload
	arenaSize uint64

	forest *forest.Forest // tree workload

	primary, replica *node
	applierDone      chan error
	clients          []*client.Client
}

// stores is how many kv stores (or trees) the workload keeps alive, for the
// memory limit.
func (w *workload) stores() int {
	if w.repl {
		return 2
	}
	return 1
}

func treeOptions(arenaSize uint64, lat pmem.LatencyModel) forest.Options {
	return forest.Options{
		Partitions:  1,
		ArenaSize:   arenaSize,
		MaxSegments: 1,
		Latency:     lat,
		Tree:        core.Options{DualSlot: true},
	}
}

// setUp builds the system and brings it to the state the warm-up starts
// from: stores created, key space preloaded, servers listening, replica
// subscribed, clients dialled. Its wall time is setup_s.
func setUp(wl *workload, in *inputs) (*env, error) {
	e := &env{wl: wl, arenaSize: wl.arenaSize(in)}
	if wl.tree {
		recs := make([]tree.KV, in.nkeys)
		for i, k := range in.treeKeys {
			idx := in.treeIndex[i]
			recs[i] = tree.KV{Key: k, Value: treeValue(idx, 1)}
		}
		f, err := forest.BulkLoad(treeOptions(e.arenaSize, wl.latency), recs)
		if err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
		e.forest = f
		return e, nil
	}

	var err error
	if e.primary, err = startNode(wl, in, e.arenaSize, repl.Primary); err != nil {
		return nil, err
	}
	if wl.repl {
		if e.replica, err = startNode(wl, in, e.arenaSize, repl.Replica); err != nil {
			e.tearDown()
			return nil, err
		}
		e.applierDone = make(chan error, 1)
		go func() {
			e.applierDone <- e.replica.rnode.RunApplier(repl.ApplierConfig{Addr: e.primary.addr})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for e.primary.rnode.NodeStats().Subscribers == 0 {
			if time.Now().After(deadline) {
				e.tearDown()
				return nil, errors.New("replica did not subscribe within 5s")
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	for i := 0; i < wl.conns; i++ {
		cl, err := client.Dial(e.primary.addr, client.Options{MaxInflight: wl.depth})
		if err != nil {
			e.tearDown()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

// startNode creates one store, preloads the key space at zero latency (two
// loaders, one per processor), prices the arenas, and serves it.
func startNode(wl *workload, in *inputs, arenaSize uint64, role uint8) (*node, error) {
	st, err := kv.New(kvOptions(arenaSize))
	if err != nil {
		return nil, fmt.Errorf("kv.New: %w", err)
	}
	n := &node{st: st, done: make(chan error, 1)}
	if err := preload(st, in); err != nil {
		return nil, err
	}
	for _, a := range st.Arenas() {
		a.SetLatency(wl.latency)
	}

	cfg := serverConfig()
	if wl.repl {
		if n.rnode, err = repl.NewNode(st, role); err != nil {
			return nil, fmt.Errorf("repl.NewNode: %w", err)
		}
		cfg.Repl = n.rnode
	}
	if wl.objs {
		if n.objs, err = obj.Attach(st, obj.Options{ReadOnly: role == repl.Replica}); err != nil {
			return nil, fmt.Errorf("obj.Attach: %w", err)
		}
		cfg.Obj = n.objs
	}
	n.srv = server.New(st, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.addr = ln.Addr().String()
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

const preloadBatch = 256

func preload(st *kv.Store, in *inputs) error {
	if in.nkeys == 0 {
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, harnessProcs)
	for l := 0; l < harnessProcs; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			keys := make([][]byte, 0, preloadBatch)
			vals := make([][]byte, 0, preloadBatch)
			buf := make([]byte, preloadBatch*in.wl.valSize)
			flush := func() {
				for _, err := range st.PutBatch(keys, vals) {
					if err != nil {
						errs[l] = fmt.Errorf("preload: %w", err)
					}
				}
				keys, vals = keys[:0], vals[:0]
			}
			for i := l; i < in.nkeys; i += harnessProcs {
				v := buf[len(keys)*in.wl.valSize:]
				keys = append(keys, in.key(uint32(i)))
				vals = append(vals, in.fillValue(v, uint64(i), 1, in.wl.valSize))
				if len(keys) == preloadBatch {
					flush()
				}
			}
			flush()
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drain shuts the node's server down once; a drain that times out is torn
// down hard, and the checks that follow catch anything that cost.
func (n *node) drain(ctx context.Context) {
	if n == nil || n.srv == nil {
		return
	}
	_ = n.srv.Shutdown(ctx)
	<-n.done
	n.srv = nil
}

// stopServing closes the clients and drains the servers; the stores stay
// open (and un-checkpointed) for the crash check. Idempotent.
func (e *env) stopServing() {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	e.primary.drain(ctx)
	e.replica.drain(ctx)
	for _, n := range []*node{e.replica, e.primary} {
		if n != nil && n.rnode != nil {
			n.rnode.Close()
		}
	}
	if e.applierDone != nil {
		select {
		case <-e.applierDone:
		case <-time.After(5 * time.Second):
		}
		e.applierDone = nil
	}
	for _, n := range []*node{e.replica, e.primary} {
		if n != nil && n.objs != nil {
			n.objs.Close()
		}
	}
}

// tearDown releases everything setUp built.
func (e *env) tearDown() {
	e.stopServing()
	e.primary, e.replica, e.forest = nil, nil, nil
}

// arenas lists every arena of the system under test.
func (e *env) arenas() []*pmem.Arena {
	if e.forest != nil {
		var as []*pmem.Arena
		for i := 0; i < e.forest.Partitions(); i++ {
			as = append(as, e.forest.Partition(i).Arena())
		}
		return as
	}
	as := e.primary.st.Arenas()
	if e.replica != nil {
		as = append(as[:len(as):len(as)], e.replica.st.Arenas()...)
	}
	return as
}
