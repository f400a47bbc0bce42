package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
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

// TestAsyncAckNotHeldByDurableBatchMate: with a replica subscribed but never
// acking, a durable PUT can only time out — and while it waits, an async PUT
// queued right behind it on the same partition is acked at once, the
// committer keeps committing that partition's further PUTs, and both writes
// are readable locally.
func TestAsyncAckNotHeldByDurableBatchMate(t *testing.T) {
	st, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewNode(st, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	const timeout = time.Second
	_, _, addr := startServerOn(t, Config{Repl: node, ReplDurableTimeout: timeout}, st)

	// The stalled replica: subscribes, is shipped records, never acks.
	stalled := dialRaw(t, addr)
	stalled.send(wire.Request{ID: 1, Op: wire.OpReplSubscribe, ReplLSNs: make([]uint64, st.Partitions())})
	if resp := stalled.recv(); resp.Status != wire.StatusOK {
		t.Fatalf("subscribe: status %d %s", resp.Status, resp.Msg)
	}

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

// TestCommitterAllocs: after warm-up a committer's gather → commit → ack
// allocates nothing, for a batch of one and of eight — the batch, the kv
// entries, the per-connection responses, the response frame and the payload
// boxes are all reused. A committer's batch is one partition's, so kv
// commits it on the committer's goroutine whatever the keys are; they are
// fresh and 8-byte-multiples for the reasons kv's TestCommitAllocs gives.
func TestCommitterAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Cache: CacheConfig{Enable: true}})
	cn := newConn(srv, nil) // no socket: acks pile up in wBuf, emptied per run
	c := srv.committers[0]
	seq := uint64(0)
	enqueue := func() mutation {
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
		return mutation{cn: cn, id: seq, op: wire.OpPut, key: (*box)[:16], val: (*box)[16:64], raw: *box, box: box}
	}
	for _, n := range []int{1, 8} {
		got := testing.AllocsPerRun(200, func() {
			first := enqueue()
			for i := 1; i < n; i++ {
				c.q <- enqueue()
			}
			c.commit(first)
			cn.wBuf = cn.wBuf[:0]
		})
		if got != 0 {
			t.Errorf("batch of %d: %v allocs per gather-commit-ack, want 0", n, got)
		}
	}
	if b, p := srv.batches.Load(), srv.batchedPuts.Load(); p != b/2*9 {
		t.Errorf("%d mutations in %d batches: the batches of eight were not gathered whole", p, b)
	}
	if n := srv.globalInflight.Load(); n != 0 {
		t.Errorf("%d request tokens not released", n)
	}
}
