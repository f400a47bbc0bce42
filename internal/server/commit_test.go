package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/race"
	"rntree/internal/repl"
	"rntree/internal/wire"
	"rntree/kv"
)

// rawConn speaks the wire protocol frame by frame, so a test controls which
// requests share one socket write.
type rawConn struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c, br: bufio.NewReader(c)}
}

// send writes every request with a single Write.
func (r *rawConn) send(reqs ...wire.Request) {
	r.t.Helper()
	var buf []byte
	for _, req := range reqs {
		var err error
		if buf, err = wire.AppendRequest(buf, req); err != nil {
			r.t.Fatal(err)
		}
	}
	if _, err := r.c.Write(buf); err != nil {
		r.t.Fatal(err)
	}
}

// sinkConn stands in for the socket of a conn built without a client: what
// its writer writes is kept in got, or dropped when discard is set.
type sinkConn struct {
	net.Conn
	discard bool
	mu      sync.Mutex
	got     []byte
}

func (s *sinkConn) Write(p []byte) (int, error) {
	if !s.discard {
		s.mu.Lock()
		s.got = append(s.got, p...)
		s.mu.Unlock()
	}
	return len(p), nil
}

func (s *sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (s *sinkConn) Close() error                     { return nil }

// sinkConnFor is newConn over a sinkConn; the writer is closed with the test.
func sinkConnFor(t *testing.T, srv *Server, discard bool) (*conn, *sinkConn) {
	sink := &sinkConn{discard: discard}
	cn := newConn(srv, sink)
	t.Cleanup(cn.w.Close)
	return cn, sink
}

func (r *rawConn) recv() wire.Response {
	r.t.Helper()
	r.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	p, err := wire.ReadFrame(r.br, nil)
	if err != nil {
		r.t.Fatalf("read response: %v", err)
	}
	resp, err := wire.DecodeResponse(p)
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// recvAll reads n responses and returns them by request ID.
func (r *rawConn) recvAll(n int) map[uint64]wire.Response {
	r.t.Helper()
	out := map[uint64]wire.Response{}
	for i := 0; i < n; i++ {
		resp := r.recv()
		out[resp.ID] = resp
	}
	return out
}

// TestSameKeyWriteOrder is the regression test for the write-route split:
// two writes to one key sent in one socket write must commit in the order
// they were sent, whatever their verbs. Each row sends its pair on a fresh
// key for many rounds, after its setup writes are acked, and checks both acks
// and then the state the pair leaves. When PUT ran on the batcher and DEL on
// a handler worker, `PUT k; DEL k` left k present in > 99 % of rounds; while
// the typed verbs ran on the workers, an EXPIRE behind a PUT or an HSET
// answered NotFound in 499 or 500 rounds of 500.
func TestSameKeyWriteOrder(t *testing.T) {
	_, _, addr := startObjServer(t, Config{Cache: CacheConfig{Enable: true}}, nil)
	rc := dialRaw(t, addr)
	put := func(v string) wire.Request { return wire.Request{Op: wire.OpPut, Val: []byte(v)} }
	var (
		del     = wire.Request{Op: wire.OpDel}
		get     = wire.Request{Op: wire.OpGet}
		expire  = wire.Request{Op: wire.OpExpire, TTLMs: 60_000}
		persist = wire.Request{Op: wire.OpPersist}
		ttl     = wire.Request{Op: wire.OpTTL}
		hset    = wire.Request{Op: wire.OpHSet, Field: []byte("f"), Val: []byte("v")}
		hdel    = wire.Request{Op: wire.OpHDel, Field: []byte("f")}
		hget    = wire.Request{Op: wire.OpHGet, Field: []byte("f")}
	)
	absent := func(r wire.Response) bool { return r.Status == wire.StatusNotFound }
	expiring := func(r wire.Response) bool { return r.Status == wire.StatusOK && r.TTL > 0 }
	const rounds = 500
	id := uint64(0)
	for _, tc := range []struct {
		name          string
		setup         []wire.Request // each acked before the pair is sent
		first, second wire.Request
		check         wire.Request
		want          func(wire.Response) bool
	}{
		{"PUT;DEL", nil, put("v"), del, get, absent},
		{"DEL;PUT", []wire.Request{put("old")}, del, put("new"), get,
			func(r wire.Response) bool { return r.Status == wire.StatusOK && string(r.Val) == "new" }},
		{"PUT;EXPIRE", nil, put("v"), expire, ttl, expiring},
		{"HSET;EXPIRE", nil, hset, expire, ttl, expiring},
		{"HSET;HDEL", nil, hset, hdel, hget, absent},
		{"EXPIRE;PERSIST", []wire.Request{put("v")}, expire, persist, ttl,
			func(r wire.Response) bool { return r.Status == wire.StatusOK && r.TTL == -1 }},
	} {
		bad, firstBad := 0, ""
		for i := 0; i < rounds; i++ {
			k := []byte(fmt.Sprintf("%s-%04d", tc.name, i))
			on := func(r wire.Request) wire.Request {
				id++
				r.ID, r.Key = id, k
				return r
			}
			for _, r := range tc.setup {
				rc.send(on(r))
				if got := rc.recv(); got.Status != wire.StatusOK {
					t.Fatalf("%s round %d: setup %s answered status %d", tc.name, i, wire.OpName(r.Op), got.Status)
				}
			}
			a, b := on(tc.first), on(tc.second)
			rc.send(a, b)
			acks := rc.recvAll(2)
			var why string
			if sa, sb := acks[a.ID].Status, acks[b.ID].Status; sa != wire.StatusOK || sb != wire.StatusOK {
				why = fmt.Sprintf("the pair was acked with status %d, %d", sa, sb)
			} else {
				rc.send(on(tc.check))
				if got := rc.recv(); !tc.want(got) {
					why = fmt.Sprintf("then %s answered status %d val %q ttl %d", wire.OpName(tc.check.Op), got.Status, got.Val, got.TTL)
				}
			}
			if why != "" {
				if bad++; bad == 1 {
					firstBad = fmt.Sprintf("round %d: %s", i, why)
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: out of order in %d of %d rounds; first, %s", tc.name, bad, rounds, firstBad)
		}
	}
}

// TestConnGoroutines: a connection is two goroutines, whatever it is sent. A
// burst of typed reads and writes, a SCAN and a STATS in one socket write runs
// on the reader and the committers, and once every answer is in, the process
// has no more goroutines than it had with the connection idle.
func TestConnGoroutines(t *testing.T) {
	_, _, addr := startObjServer(t, Config{Cache: CacheConfig{Enable: true}}, nil)
	rc := dialRaw(t, addr)
	rc.send(wire.Request{ID: 1, Op: wire.OpPing})
	rc.recv()
	baseline := runtime.NumGoroutine()

	var reqs []wire.Request
	add := func(r wire.Request) {
		r.ID = uint64(len(reqs) + 2)
		reqs = append(reqs, r)
	}
	for i := 0; i < 8; i++ {
		name, field := []byte(fmt.Sprintf("obj%d", i)), []byte(fmt.Sprintf("f%d", i))
		add(wire.Request{Op: wire.OpHSet, Key: name, Field: field, Val: []byte("v")})
		add(wire.Request{Op: wire.OpHGet, Key: name, Field: field})
		add(wire.Request{Op: wire.OpExpire, Key: name, TTLMs: 60_000})
		add(wire.Request{Op: wire.OpTTL, Key: name})
		add(wire.Request{Op: wire.OpPersist, Key: name})
		add(wire.Request{Op: wire.OpHDel, Key: name, Field: field})
		add(wire.Request{Op: wire.OpSAdd, Key: []byte(fmt.Sprintf("set%d", i)), Field: field})
		add(wire.Request{Op: wire.OpSMembers, Key: []byte(fmt.Sprintf("set%d", i))})
	}
	add(wire.Request{Op: wire.OpScan, ScanMax: 100})
	add(wire.Request{Op: wire.OpStats})
	rc.send(reqs...)
	got := rc.recvAll(len(reqs))
	for _, r := range reqs {
		// A read may overtake the writes sent before it, and find nothing.
		if resp, ok := got[r.ID]; !ok || resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound {
			t.Errorf("%s %q: answered %v, status %d %s", wire.OpName(r.Op), r.Key, ok, resp.Status, resp.Msg)
		}
	}

	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > baseline {
		t.Fatalf("%d goroutines after %d requests on an idle connection's %d: the connection kept helpers", n, len(reqs), baseline)
	}
}

// A durable PUT and an async PUT of the same key, sent together: the async
// one is acked first (it does not wait for the replica) but committed second,
// so its value is the final one on both nodes.
func TestDurableThenAsyncPutOrder(t *testing.T) {
	pNode, rNode, pAddr, _ := startReplPair(t, Config{}, Config{})
	rc := dialRaw(t, pAddr)
	const rounds = 200
	for i := 0; i < rounds; i++ {
		k := []byte(fmt.Sprintf("da%03d", i))
		id := uint64(3 * i)
		rc.send(
			wire.Request{ID: id + 1, Op: wire.OpPut, Key: k, Val: []byte("durable"), Durable: true},
			wire.Request{ID: id + 2, Op: wire.OpPut, Key: k, Val: []byte("async")},
		)
		acks := rc.recvAll(2)
		if acks[id+1].Status != wire.StatusOK || acks[id+2].Status != wire.StatusOK {
			t.Fatalf("round %d: acks %+v", i, acks)
		}
		rc.send(wire.Request{ID: id + 3, Op: wire.OpGet, Key: k})
		if got := rc.recv(); string(got.Val) != "async" {
			t.Fatalf("round %d: final value %q, want the second write's", i, got.Val)
		}
	}
	waitConverged(t, pNode, rNode)
}

// keysInPartition returns n distinct keys that st routes to partition part.
func keysInPartition(st *kv.Store, part, n int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		k := []byte(fmt.Sprintf("p%d-%04d", part, i))
		if st.PartitionOf(k) == part {
			out = append(out, k)
		}
	}
	return out
}

// startStalledPrimary serves a primary whose one replica is a raw connection
// that subscribes, is shipped records and acks only when the test says so.
func startStalledPrimary(t *testing.T, durableTimeout time.Duration) (st *kv.Store, addr string, stalled *rawConn) {
	t.Helper()
	st, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewNode(st, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	_, _, addr = startServerOn(t, Config{Repl: node, ReplDurableTimeout: durableTimeout}, st)
	stalled = dialRaw(t, addr)
	stalled.send(wire.Request{ID: 1, Op: wire.OpReplSubscribe, ReplLSNs: make([]uint64, st.Partitions())})
	if resp := stalled.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: status %d %s", resp.Status, resp.Msg)
	}
	return st, addr, stalled
}

// TestAsyncAckNotHeldByDurableBatchMate: with a replica subscribed but never
// acking, a durable PUT can only time out — and while it waits, an async PUT
// queued right behind it on the same partition is acked at once, the
// committer keeps committing that partition's further PUTs, and both writes
// are readable locally.
func TestAsyncAckNotHeldByDurableBatchMate(t *testing.T) {
	const timeout = time.Second
	st, addr, _ := startStalledPrimary(t, timeout)

	keys := keysInPartition(st, 1, 10)
	rc := dialRaw(t, addr)
	start := time.Now()
	rc.send(
		wire.Request{ID: 1, Op: wire.OpPut, Key: keys[0], Val: []byte("durable"), Durable: true},
		wire.Request{ID: 2, Op: wire.OpPut, Key: keys[1], Val: []byte("async")},
	)
	if first := rc.recv(); first.ID != 2 || first.Status != wire.StatusOK {
		t.Fatalf("first response is %+v, want the async PUT's OK", first)
	}
	if held := time.Since(start); held > timeout/2 {
		t.Fatalf("async ack took %v: held by its durable batch-mate (timeout %v)", held, timeout)
	}
	// The partition keeps committing while the durable ack is outstanding.
	for i, k := range keys[2:] {
		rc.send(wire.Request{ID: uint64(10 + i), Op: wire.OpPut, Key: k, Val: []byte("more")})
		if resp := rc.recv(); resp.ID != uint64(10+i) || resp.Status != wire.StatusOK {
			t.Fatalf("PUT %d behind the waiting durable PUT: %+v", i, resp)
		}
	}
	if since := time.Since(start); since > timeout {
		t.Skipf("host too slow to observe the wait (%v elapsed of a %v timeout)", since, timeout)
	}
	last := rc.recv()
	if last.ID != 1 || last.Status != wire.StatusErr || !strings.Contains(last.Msg, repl.ErrDurableTimeout.Error()) {
		t.Fatalf("durable PUT response = %+v, want the durable-timeout error", last)
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("durable PUT failed after %v, before its %v timeout", waited, timeout)
	}
	c := dial(t, addr, client.Options{})
	for i, want := range []string{"durable", "async"} {
		if v, err := c.Get(keys[i]); err != nil || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q committed locally", keys[i], v, err, want)
		}
	}
}

// TestDurableAckNoGoroutinePerBatch: durable PUTs waiting for a stalled
// replica cost no goroutine (nor timer) each — 64 of them, committed in
// however many batches, leave the goroutine count where an idle connection
// had it, and STATS counts them as pending with the oldest's age. One replica
// ack then releases them all, OK.
func TestDurableAckNoGoroutinePerBatch(t *testing.T) {
	st, addr, stalled := startStalledPrimary(t, time.Minute)
	rc, sc := dialRaw(t, addr), dial(t, addr, client.Options{})
	rc.send(wire.Request{ID: 1, Op: wire.OpPing})
	rc.recv()
	if _, err := sc.Stats(); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const n = 64
	reqs := make([]wire.Request, n)
	for i := range reqs {
		reqs[i] = wire.Request{ID: uint64(100 + i), Op: wire.OpPut, Key: []byte(fmt.Sprintf("d%02d", i)), Val: []byte("v"), Durable: true}
	}
	rc.send(reqs...)
	var stats map[string]uint64
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var err error
		if stats, err = sc.Stats(); err != nil {
			t.Fatal(err)
		}
		if stats["repl_durable_pending"] == n || time.Now().After(deadline) {
			break
		}
	}
	if got := stats["repl_durable_pending"]; got != n {
		t.Fatalf("repl_durable_pending = %d, want %d", got, n)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines with %d durable PUTs waiting, %d before: something is spawned per batch", got, n, baseline)
	}
	time.Sleep(5 * time.Millisecond)
	if stats, err := sc.Stats(); err != nil || stats["repl_durable_oldest_us"] < 5000 {
		t.Errorf("repl_durable_oldest_us = %d (%v), want the oldest wait, >= 5 ms", stats["repl_durable_oldest_us"], err)
	}

	stalled.send(wire.Request{ID: 2, Op: wire.OpReplAck, ReplLSNs: st.ReplLSNs()})
	for id, resp := range rc.recvAll(n) {
		if resp.Status != wire.StatusOK {
			t.Errorf("durable PUT %d answered %d %s after the ack covering it", id, resp.Status, resp.Msg)
		}
	}
	if stats, err := sc.Stats(); err != nil || stats["repl_durable_pending"] != 0 || stats["repl_durable_oldest_us"] != 0 {
		t.Errorf("after the ack: pending %d, oldest %d us (%v)", stats["repl_durable_pending"], stats["repl_durable_oldest_us"], err)
	}
}

// TestCommitterAllocs: after warm-up a committer's gather → commit → ack
// allocates nothing, for a batch of one and of eight — the batch, the kv
// entries, the per-connection responses, the response frame and the payload
// boxes are all reused. So does a batch of durable PUTs, held on the durable
// FIFO until a replica's ack releases it: no goroutine, timer, channel or
// slice per batch. A committer's batch is one partition's, so kv commits it
// on the committer's goroutine whatever the keys are; they are fresh for the
// reason kv's TestCommitAllocs gives.
func TestCommitterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewNode(st, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := New(st, Config{Cache: CacheConfig{Enable: true}, Repl: node})
	// The replica's acks, without its stream: a stopped subscriber is shipped
	// nothing (TestReplShipAllocs covers that path), and an ack that reaches
	// it still folds into the node's watermark.
	sub, err := node.Subscribe(make([]uint64, st.Partitions()), func(repl.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	go sub.Run()
	sub.Stop()
	<-sub.Done()
	ack := make([]uint64, st.Partitions())
	cn, _ := sinkConnFor(t, srv, true)
	c := srv.committers[0]
	seq := uint64(0)
	enqueue := func(durable bool) mutation {
		box, _ := payloadPool.Get().(*[]byte)
		if box == nil {
			box = new([]byte)
		}
		if cap(*box) < 64 { // warm-up, or a small payload an earlier test retired
			*box = make([]byte, 64)
		}
		*box = (*box)[:64]
		seq++
		binary.BigEndian.PutUint64(*box, seq)
		cn.sem <- struct{}{}
		cn.inflight.Add(1)
		srv.globalInflight.Add(1)
		return mutation{cn: cn, id: seq, op: wire.OpPut, key: (*box)[:16], val: (*box)[16:61], raw: *box, box: box, durable: durable}
	}
	for _, durable := range []bool{false, true} {
		for _, n := range []int{1, 8} {
			got := testing.AllocsPerRun(200, func() {
				first := enqueue(durable)
				for i := 1; i < n; i++ {
					c.q <- enqueue(durable)
				}
				c.commit(first)
				if durable {
					ack[0] = st.ReplLSN(0)
					sub.Ack(ack)
				}
				// The writer drains each run's acks, so its buffers never
				// outgrow one run and their growth stays in the warm-up.
				cn.w.AwaitBacklog(0, nil)
			})
			if got != 0 {
				t.Errorf("batch of %d (durable %v): %v allocs per gather-commit-ack, want 0", n, durable, got)
			}
		}
	}
	if b, p := srv.batches.Load(), srv.batchedPuts.Load(); p != b/2*9 {
		t.Errorf("%d mutations in %d batches: the batches of eight were not gathered whole", p, b)
	}
	if n := srv.globalInflight.Load(); n != 0 {
		t.Errorf("%d request tokens not released", n)
	}
	if w, f := srv.replWaits.Load(), srv.replWaitFails.Load(); w != 201*9 || f != 0 {
		t.Errorf("%d durable PUTs held, %d timed out; want %d and 0", w, f, 201*9)
	}
}

// TestDurableAckTimeoutRace: with a timeout short enough that durTimer, the
// replica's acks and the committers all reach the durable FIFOs at once,
// every durable PUT is answered exactly once — OK, or the timeout error for a
// write the replica was too slow for — and the FIFOs drain to empty.
func TestDurableAckTimeoutRace(t *testing.T) {
	_, _, pAddr, _ := startReplPair(t, Config{ReplDurableTimeout: 500 * time.Microsecond}, Config{})
	c := dial(t, pAddr, client.Options{})
	const writers, each = 4, 50
	var timeouts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := c.PutDurable([]byte(fmt.Sprintf("w%d-%02d", w, i)), []byte("v"))
				switch {
				case err == nil:
				case strings.Contains(err.Error(), repl.ErrDurableTimeout.Error()):
					timeouts.Add(1)
				default:
					t.Errorf("PutDurable: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["repl_durable_waits"] != writers*each || stats["repl_durable_timeouts"] != uint64(timeouts.Load()) || stats["repl_durable_pending"] != 0 {
		t.Fatalf("%d durable PUTs, %d timed out: STATS says waits %d, timeouts %d, pending %d", writers*each, timeouts.Load(),
			stats["repl_durable_waits"], stats["repl_durable_timeouts"], stats["repl_durable_pending"])
	}
	t.Logf("%d of %d durable PUTs timed out", timeouts.Load(), writers*each)
}

// TestDurableAckAheadOfCommit: a replica watermark that already covers a
// durable PUT's LSN when its committer enqueues it — the ack raced ahead of
// the enqueue, so no watermark hook call is left to release it — is seen by
// the commit itself, which answers at once.
func TestDurableAckAheadOfCommit(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewNode(st, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := New(st, Config{Repl: node})
	// Subscribing from a watermark is an ack of it.
	ahead := []uint64{st.ReplLSN(0) + 1}
	sub, err := node.Subscribe(ahead, func(repl.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	go sub.Run()
	cn, sink := sinkConnFor(t, srv, false)
	cn.sem <- struct{}{}
	cn.inflight.Add(1)
	srv.globalInflight.Add(1)
	srv.committers[0].commit(mutation{cn: cn, id: 7, op: wire.OpPut, key: []byte("k"), val: []byte("v"), durable: true})
	pending, _ := srv.durableBacklog()
	cn.w.Close() // the response, if any, is in sink.got once the writer has drained
	if pending != 0 || len(sink.got) == 0 {
		t.Fatalf("durable PUT under the watermark: %d pending, %d response bytes", pending, len(sink.got))
	}
	resp, err := wire.DecodeResponse(sink.got[4:])
	if err != nil || resp.ID != 7 || resp.Status != wire.StatusOK {
		t.Fatalf("response %+v, %v; want OK for request 7", resp, err)
	}
}

// TestReplShipAllocs: in steady state the ship stream allocates nothing per
// record — the commit hook's copy of key and value comes from a pool and
// goes back once sent, and the frame is encoded into the connection's
// reused ship buffer before send copies it into the write buffer.
func TestReplShipAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewNode(st, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv := New(st, Config{Repl: node})
	cn, _ := sinkConnFor(t, srv, true)
	shipped := make(chan struct{})
	sub, err := node.Subscribe(make([]uint64, st.Partitions()), func(rec repl.Record) error {
		err := cn.sendRecord(rec)
		shipped <- struct{}{}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	go sub.Run()
	key, val := make([]byte, 13), make([]byte, 300)
	seq := uint64(0)
	got := testing.AllocsPerRun(500, func() {
		seq++
		binary.BigEndian.PutUint64(key, seq)
		if err := st.Put(key, val); err != nil {
			t.Fatal(err)
		}
		<-shipped
		cn.w.AwaitBacklog(0, nil) // as in TestCommitterAllocs
	})
	if got != 0 {
		t.Errorf("%v allocs per shipped record, want 0", got)
	}
	if n := node.NodeStats().Shipped; n != seq {
		t.Errorf("%d records offered for %d puts", n, seq)
	}
}
