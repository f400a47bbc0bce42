package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime/debug"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/obj"
	"rntree/internal/race"
	"rntree/internal/wire"
	"rntree/kv"
)

// framePayload encodes req and strips the length prefix: what ReadFrame
// hands the reader.
func framePayload(t *testing.T, req wire.Request) []byte {
	t.Helper()
	frame, err := wire.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return frame[4:]
}

// routeFrame feeds payload to cn the way readLoop does: in a pooled box when
// the pool has one, which route (or whoever finishes the request) returns.
func routeFrame(cn *conn, payload []byte) {
	box, _ := payloadPool.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = append((*box)[:0], payload...)
	cn.route(*box, box)
	cn.out = cn.out[:0]
}

// TestReaderServedAllocs: a request the reader serves leaves no garbage of
// the server's making. A PING and a GET that hits allocate nothing; a GET
// that goes to the store allocates what kv.Store.Get allocates for that key
// (the value it returns) and nothing more, and a miss that fills the cache
// adds only the cache's own key string. A typed read allocates what its
// object-layer call allocates on its own.
func TestReaderServedAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	key, absent := []byte("resident-key-000"), []byte("absent-key-00000")
	if err := st.Put(key, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	storeGet := testing.AllocsPerRun(200, func() { st.Get(key) })
	storeMiss := testing.AllocsPerRun(200, func() { st.Get(absent) })

	o, err := obj.Attach(st, obj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	hash, field, set := []byte("hash-name"), []byte("field"), []byte("set-name")
	for _, err := range []error{
		o.HSet(hash, field, make([]byte, 128)), o.Expire(hash, 3_600_000),
		o.SAdd(set, []byte("a")), o.SAdd(set, []byte("b")),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	objHGet := testing.AllocsPerRun(200, func() { o.HGet(hash, field) })
	objSMembers := testing.AllocsPerRun(200, func() { o.SMembers(set) })
	objTTL := testing.AllocsPerRun(200, func() { o.TTL(hash) })

	// The cache lives in the store, so the cached server gets a store of its
	// own; a Put of the key is what drops it from the cache.
	cachedSt, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 512)
	if err := cachedSt.Put(key, val); err != nil {
		t.Fatal(err)
	}
	storePut := testing.AllocsPerRun(200, func() { cachedSt.Put(key, val) })
	cached := New(cachedSt, Config{Cache: CacheConfig{Enable: true}})
	plain := New(st, Config{})
	typed := New(st, Config{Obj: o})
	ping := framePayload(t, wire.Request{ID: 1, Op: wire.OpPing})
	get := framePayload(t, wire.Request{ID: 2, Op: wire.OpGet, Key: key})
	getAbsent := framePayload(t, wire.Request{ID: 3, Op: wire.OpGet, Key: absent})
	hget := framePayload(t, wire.Request{ID: 4, Op: wire.OpHGet, Key: hash, Field: field})
	smembers := framePayload(t, wire.Request{ID: 5, Op: wire.OpSMembers, Key: set})
	ttl := framePayload(t, wire.Request{ID: 6, Op: wire.OpTTL, Key: hash})

	for _, tc := range []struct {
		name    string
		srv     *Server
		payload []byte
		after   func() // runs inside the measured function
		want    float64
	}{
		{"PING", cached, ping, nil, 0},
		{"GET hit", cached, get, nil, 0},
		{"GET, no cache", plain, get, nil, storeGet},
		{"GET miss, key absent", cached, getAbsent, nil, storeMiss},
		{"GET miss and fill", cached, get, func() { cachedSt.Put(key, val) }, storeGet + 1 + storePut},
		{"HGET", typed, hget, nil, objHGet},
		{"SMEMBERS", typed, smembers, nil, objSMembers},
		{"TTL", typed, ttl, nil, objTTL},
	} {
		cn, _ := sinkConnFor(t, tc.srv, true) // responses stay in cn.out
		run := func() {
			routeFrame(cn, tc.payload)
			if tc.after != nil {
				tc.after()
			}
		}
		run() // warm-up: the pooled box, cn.out, and the hit case's fill
		if got := testing.AllocsPerRun(200, run); got != tc.want {
			t.Errorf("%s: %v allocs per request, want %v", tc.name, got, tc.want)
		}
	}
	if cs := cached.Stats().Cache; cs.Hits == 0 || cs.Misses == 0 {
		t.Errorf("cache saw %d hits and %d misses: the cases did not run as named", cs.Hits, cs.Misses)
	}
	if n := cached.requests.Load() + plain.requests.Load() + typed.requests.Load(); n != 8*202 {
		t.Errorf("requests = %d, want every routed request counted (%d)", n, 8*202)
	}
}

// TestPayloadReturned: both routes give the frame payload back to
// payloadPool once its response is encoded — the reader itself, a committer
// once the write is acked.
func TestPayloadReturned(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	st, err := kv.New(kv.Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	o, err := obj.Attach(st, obj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.HSet([]byte("h"), []byte("f"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Obj: o})
	cn, _ := sinkConnFor(t, srv, true)
	for payloadPool.Get() != nil { // leave nothing an earlier test retired
	}
	check := func(name string, req wire.Request, finish func([]byte, *[]byte)) {
		t.Helper()
		payload, box := framePayload(t, req), new([]byte)
		finish(payload, box)
		if got, _ := payloadPool.Get().(*[]byte); got != box {
			t.Errorf("%s: payload box not returned to payloadPool", name)
		} else if cap(*got) != cap(payload) {
			t.Errorf("%s: box came back holding another buffer", name)
		}
	}
	onReader := cn.route
	// route queues a write on its committer, whose goroutine would return the
	// payload to another P's pool; commit is what that goroutine runs.
	onCommitter := func(payload []byte, box *[]byte) {
		cn.route(payload, box)
		c := srv.committers[st.PartitionOf([]byte("h"))]
		select {
		case m := <-c.q:
			c.commit(m)
		default:
			t.Fatal("write not queued on its committer")
		}
	}
	check("PING on the reader", wire.Request{ID: 1, Op: wire.OpPing}, onReader)
	check("GET on the reader", wire.Request{ID: 2, Op: wire.OpGet, Key: []byte("k")}, onReader)
	check("HGET on the reader", wire.Request{ID: 3, Op: wire.OpHGet, Key: []byte("h"), Field: []byte("f")}, onReader)
	check("STATS on the reader", wire.Request{ID: 4, Op: wire.OpStats}, onReader)
	check("SCAN on the reader", wire.Request{ID: 5, Op: wire.OpScan, ScanMax: 10}, onReader)
	check("HSET on its committer", wire.Request{ID: 6, Op: wire.OpHSet, Key: []byte("h"), Field: []byte("g"), Val: []byte("w")}, onCommitter)
	if n := srv.globalInflight.Load(); n != 0 {
		t.Errorf("%d request tokens not released", n)
	}
	if v, err := o.HGet([]byte("h"), []byte("g")); err != nil || string(v) != "w" {
		t.Errorf("after the committed HSET, HGET = %q, %v", v, err)
	}
}

// TestClientRoundTripAllocs: with both ends in one process, a Ping round trip
// allocates nothing in Client.do and nothing on the server — all that is
// left is what wire.ReadFrame allocates for the one frame each end reads —
// and a Get adds only the value the client returns to its caller.
func TestClientRoundTripAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	frame, _ := wire.AppendRequest(nil, wire.Request{ID: 1, Op: wire.OpPing})
	src := bytes.NewReader(frame)
	br, buf := bufio.NewReader(src), make([]byte, 64)
	readFrames := 2 * testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		br.Reset(src)
		wire.ReadFrame(br, buf)
	})
	_, _, addr := startServer(t, Config{Cache: CacheConfig{Enable: true}}, kv.Options{})
	c := dial(t, addr, client.Options{})
	key := []byte("round-trip-key-0")
	if err := c.Put(key, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // warm the pools, the pending map and the cache
		c.Ping()
		c.Get(key)
	}
	if got := testing.AllocsPerRun(500, func() { c.Ping() }); got != readFrames {
		t.Errorf("Ping round trip: %v allocs, want %v (two ReadFrames)", got, readFrames)
	}
	if got := testing.AllocsPerRun(500, func() { c.Get(key) }); got != readFrames+1 {
		t.Errorf("Get round trip: %v allocs, want %v (two ReadFrames and the returned value)", got, readFrames+1)
	}
}

// TestPipelinedGetBurst: 64 GETs written in one segment — hits, misses, a
// reserved key, an expired key — get 64 answers with the right statuses, and
// the cache was looked up exactly once for each GET that reached it.
func TestPipelinedGetBurst(t *testing.T) {
	clk := newFake()
	st, err := kv.New(kv.Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	o, err := obj.Attach(st, obj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.Close() // no expirer: the lapsed key stays unreaped, masked by its deadline
	srv, _, addr := startServerOn(t, Config{Cache: CacheConfig{Enable: true}, Obj: o}, st)
	c := dial(t, addr, client.Options{})
	for i := 0; i < 31; i++ {
		if err := c.Put([]byte(fmt.Sprintf("warm%02d", i)), []byte(fmt.Sprintf("val%02d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get([]byte(fmt.Sprintf("warm%02d", i))); err != nil { // fill
			t.Fatal(err)
		}
	}
	if err := c.Put([]byte("lapsed"), []byte("dead")); err != nil {
		t.Fatal(err)
	}
	if err := c.Expire([]byte("lapsed"), 1_000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get([]byte("lapsed")); err != nil { // resident in the cache, and about to lapse
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	before := srv.Stats().Cache

	var reqs []wire.Request
	want := map[uint64]wire.Response{}
	add := func(key string, status uint8, val string) {
		id := uint64(len(reqs) + 1)
		reqs = append(reqs, wire.Request{ID: id, Op: wire.OpGet, Key: []byte(key)})
		want[id] = wire.Response{Status: status, Val: []byte(val)}
	}
	for i := 0; i < 31; i++ {
		add(fmt.Sprintf("warm%02d", i), wire.StatusOK, fmt.Sprintf("val%02d", i)) // hit
		add(fmt.Sprintf("cold%02d", i), wire.StatusNotFound, "")                  // miss
	}
	add(string([]byte{obj.NSByte, 'H', 'x'}), wire.StatusErr, "")
	add("lapsed", wire.StatusNotFound, "")
	rc := dialRaw(t, addr)
	rc.send(reqs...)
	got := rc.recvAll(len(reqs))
	if len(got) != 64 {
		t.Fatalf("%d distinct responses to 64 GETs", len(got))
	}
	for id, w := range want {
		g := got[id]
		if g.Status != w.Status || string(g.Val) != string(w.Val) || g.Op != wire.OpGet {
			t.Errorf("GET %q: status %d val %q, want status %d val %q", reqs[id-1].Key, g.Status, g.Val, w.Status, w.Val)
		}
	}
	after := srv.Stats().Cache
	if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != 31 || m != 31 {
		t.Errorf("cache saw %d hits and %d misses, want 31 and 31: the reserved and the expired key stop before it, every other GET looks once", h, m)
	}
}

// TestSlowReaderBacklogBounded: a client that pipelines GETs of a large cached
// value and never reads stalls in TCP, not in server memory — the reader
// stops decoding once maxBacklog response bytes are unwritten — and the
// connection is torn down when a response write times out.
func TestSlowReaderBacklogBounded(t *testing.T) {
	const writeTimeout = 500 * time.Millisecond
	srv, _, addr := startServer(t, Config{
		Cache:        CacheConfig{Enable: true},
		WriteTimeout: writeTimeout,
	}, kv.Options{})
	c := dial(t, addr, client.Options{})
	key, val := []byte("big"), make([]byte, 32<<10)
	if err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(key); err != nil { // fill
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var segment []byte
	for i := 0; i < 256; i++ {
		segment, _ = wire.AppendRequest(segment, wire.Request{ID: uint64(i + 1), Op: wire.OpGet, Key: key})
	}
	writeFailed := make(chan struct{})
	go func() { // writes until the server, having stopped taking bytes, drops the connection
		defer close(writeFailed)
		for {
			if _, err := raw.Write(segment); err != nil {
				return
			}
		}
	}()

	// One batch past the bound: the reader checks the backlog between
	// frames, so it can overshoot by what it collects before one flush.
	const bound = maxBacklog + readBatchBytes + 64<<10
	registered := func() *conn {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for cn := range srv.conns {
			if cn.c.RemoteAddr().String() == raw.LocalAddr().String() {
				return cn
			}
		}
		return nil
	}
	var peak int64
	start := time.Now()
	for cn := registered(); cn != nil || time.Since(start) < 100*time.Millisecond; cn = registered() {
		if cn == nil { // not accepted yet
			time.Sleep(time.Millisecond)
			continue
		}
		if b := cn.w.Backlog(); b > peak {
			peak = b
		}
		if peak > bound {
			t.Fatalf("unwritten backlog reached %d MiB (bound %d MiB): the server buffers for a client that does not read", peak>>20, bound>>20)
		}
		if time.Since(start) > 20*writeTimeout {
			t.Fatalf("connection still registered %v after its writes must have timed out (WriteTimeout %v)", time.Since(start), writeTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	if peak <= maxBacklog {
		t.Fatalf("backlog peaked at %d bytes: the client never outran the server, the test proved nothing", peak)
	}
	// The socket is closed, not merely abandoned: the blocked Write fails and
	// what was sent ends in EOF or a reset.
	select {
	case <-writeFailed:
	case <-time.After(5 * time.Second):
		t.Fatal("client's writes still pending: connection not closed")
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, raw); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection not closed after its write timed out")
		}
	}
	t.Logf("backlog peaked at %.1f MiB; torn down after %v", float64(peak)/(1<<20), time.Since(start).Round(time.Millisecond))
}
