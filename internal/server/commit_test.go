package server

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
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
// two writes to one key sent back-to-back on one connection must commit in
// the order they were sent, whatever their verbs. When PUT ran on the
// batcher (or a worker) and DEL on another worker, `PUT k; DEL k` left k
// present after both acks in > 99 % of rounds.
func TestSameKeyWriteOrder(t *testing.T) {
	_, _, addr := startServer(t, Config{Cache: CacheConfig{Enable: true}}, kv.Options{})
	rc := dialRaw(t, addr)
	const rounds = 2000
	id := uint64(0)
	for i := 0; i < rounds; i++ {
		k := []byte(fmt.Sprintf("pd%04d", i))
		rc.send(
			wire.Request{ID: id + 1, Op: wire.OpPut, Key: k, Val: []byte("v")},
			wire.Request{ID: id + 2, Op: wire.OpDel, Key: k},
		)
		acks := rc.recvAll(2)
		if acks[id+1].Status != wire.StatusOK || acks[id+2].Status != wire.StatusOK {
			t.Fatalf("round %d: PUT;DEL acked %d, %d", i, acks[id+1].Status, acks[id+2].Status)
		}
		rc.send(wire.Request{ID: id + 3, Op: wire.OpGet, Key: k})
		if got := rc.recv(); got.Status != wire.StatusNotFound {
			t.Fatalf("round %d: key present after PUT;DEL were both acked (status %d)", i, got.Status)
		}

		// The other order, on a key that exists: DEL then PUT leaves it set.
		rc.send(wire.Request{ID: id + 4, Op: wire.OpPut, Key: k, Val: []byte("old")})
		rc.recv()
		rc.send(
			wire.Request{ID: id + 5, Op: wire.OpDel, Key: k},
			wire.Request{ID: id + 6, Op: wire.OpPut, Key: k, Val: []byte("new")},
		)
		acks = rc.recvAll(2)
		if acks[id+5].Status != wire.StatusOK || acks[id+6].Status != wire.StatusOK {
			t.Fatalf("round %d: DEL;PUT acked %d, %d", i, acks[id+5].Status, acks[id+6].Status)
		}
		rc.send(wire.Request{ID: id + 7, Op: wire.OpGet, Key: k})
		if got := rc.recv(); got.Status != wire.StatusOK || string(got.Val) != "new" {
			t.Fatalf("round %d: after DEL;PUT were both acked GET = status %d %q", i, got.Status, got.Val)
		}
		id += 7
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
