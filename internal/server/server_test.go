package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/wire"
	"rntree/kv"
)

// startServer spins up a store + server on loopback and returns them with
// a cleanup-registered shutdown.
func startServer(t *testing.T, scfg Config, kopts kv.Options) (*Server, *kv.Store, string) {
	t.Helper()
	if kopts.ArenaSize == 0 {
		kopts = kv.Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 2}
	}
	st, err := kv.New(kopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, st, ln.Addr().String()
}

func dial(t *testing.T, addr string, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// Negative caps take the defaults like zero does: MaxBatch sizes a channel
// inside New and MaxInflight one per accepted connection, so neither may
// reach make(chan, n) below zero.
func TestNegativeConfigTakesDefaults(t *testing.T) {
	_, _, addr := startServer(t, Config{
		MaxConns: -1, MaxInflight: -1, MaxGlobalInflight: -1,
		Batch: BatchConfig{MaxBatch: -1, QueueCap: -1},
	}, kv.Options{})
	c := dial(t, addr, client.Options{})
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestServerBasicOps(t *testing.T) {
	_, st, addr := startServer(t, Config{}, kv.Options{})
	c := dial(t, addr, client.Options{})

	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, err := c.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("absent")); err != client.ErrNotFound {
		t.Fatalf("absent Get: %v", err)
	}
	if err := c.Delete([]byte("hello")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.Delete([]byte("hello")); err != client.ErrNotFound {
		t.Fatalf("double Delete: %v", err)
	}
	// Empty key surfaces the server-side error message.
	if err := c.Put(nil, []byte("x")); err == nil {
		t.Fatal("empty-key Put succeeded")
	}

	for i := 0; i < 20; i++ {
		if err := c.Put([]byte(fmt.Sprintf("user:%02d", i)), []byte("u")); err != nil {
			t.Fatal(err)
		}
	}
	pairs, err := c.Scan([]byte("user:"), 100)
	if err != nil || len(pairs) != 20 {
		t.Fatalf("Scan = %d pairs, %v", len(pairs), err)
	}
	pairs, err = c.Scan([]byte("user:"), 7)
	if err != nil || len(pairs) != 7 {
		t.Fatalf("bounded Scan = %d pairs, %v", len(pairs), err)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["live_keys"] != 20 {
		t.Fatalf("live_keys = %d, want 20", stats["live_keys"])
	}
	if stats["conns_active"] != 1 || stats["requests"] == 0 {
		t.Fatalf("server counters missing: %v", stats)
	}
	// The HTM abort breakdown and the tree's wasted reads ride STATS: the
	// connection is quiet, so they equal the store's own accessors.
	ht := st.HTMStats()
	for name, want := range map[string]uint64{
		"htm_commits": ht.Commits, "htm_conflict_aborts": ht.ConflictAborts, "htm_capacity_aborts": ht.CapacityAborts,
		"htm_explicit_aborts": ht.ExplicitAborts, "htm_spurious_aborts": ht.SpuriousAborts, "htm_fallbacks": ht.Fallbacks,
		"tree_read_retries": st.ReadRetries(),
	} {
		if got, ok := stats[name]; !ok || got != want {
			t.Errorf("STATS %s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if ht.Commits < 21 {
		t.Errorf("htm_commits = %d after 21 index inserts", ht.Commits)
	}
}

// TestPipelinedOutOfOrder verifies many concurrent callers share one
// connection and every response routes back to its caller.
func TestPipelinedOutOfOrder(t *testing.T) {
	_, _, addr := startServer(t, Config{}, kv.Options{})
	c := dial(t, addr, client.Options{MaxInflight: 32})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("g%d-i%d", g, i))
				v := []byte(fmt.Sprintf("val-%d-%d", g, i))
				if err := c.Put(k, v); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				got, err := c.Get(k)
				if err != nil || !bytes.Equal(got, v) {
					t.Errorf("Get(%s) = %q, %v", k, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchedPuts drives the partition committers from several connections
// and checks both correctness and that batches actually formed.
func TestBatchedPuts(t *testing.T) {
	srv, st, addr := startServer(t, Config{Batch: BatchConfig{MaxBatch: 32}}, kv.Options{})
	var wg sync.WaitGroup
	for conn := 0; conn < 4; conn++ {
		c := dial(t, addr, client.Options{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(conn, g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					k := []byte(fmt.Sprintf("c%d-g%d-i%d", conn, g, i))
					if err := c.Put(k, []byte("v")); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}(conn, g)
		}
	}
	wg.Wait()
	if n := st.Stats().LiveKeys; n != 4*8*25 {
		t.Fatalf("LiveKeys = %d, want %d", n, 4*8*25)
	}
	batches, puts := srv.batches.Load(), srv.batchedPuts.Load()
	if puts != 4*8*25 {
		t.Fatalf("batched_puts = %d, want %d", puts, 4*8*25)
	}
	if batches == 0 || batches >= puts {
		t.Fatalf("no coalescing: %d batches for %d puts", batches, puts)
	}
	t.Logf("%d puts in %d batches (avg %.1f/batch)", puts, batches, float64(puts)/float64(batches))
}

// TestOverloadRejection fills the global inflight budget with slow
// requests... the simulated store is fast, so instead shrink the budget and
// drive more concurrent requests than it admits: excess must be rejected
// with StatusOverloaded, not queued or dropped.
func TestOverloadRejection(t *testing.T) {
	srv, _, addr := startServer(t, Config{
		MaxInflight:       64,
		MaxGlobalInflight: 2,
		Batch:             BatchConfig{MaxBatch: 4, QueueCap: 4},
	}, kv.Options{})
	c := dial(t, addr, client.Options{MaxInflight: 64})
	var wg sync.WaitGroup
	var overloaded, ok int
	var mu sync.Mutex
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				err := c.Put([]byte(fmt.Sprintf("k%d-%d", g, i)), []byte("v"))
				mu.Lock()
				switch err {
				case nil:
					ok++
				case client.ErrOverloaded:
					overloaded++
				default:
					t.Errorf("Put: %v", err)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if overloaded == 0 {
		t.Fatal("no overload rejections despite a 2-request global budget")
	}
	if ok == 0 {
		t.Fatal("every request rejected")
	}
	if srv.overloads.Load() == 0 {
		t.Fatal("overload counter not incremented")
	}
	t.Logf("ok=%d overloaded=%d", ok, overloaded)
}

func TestMaxConnsRefused(t *testing.T) {
	srv, _, addr := startServer(t, Config{MaxConns: 2}, kv.Options{})
	c1 := dial(t, addr, client.Options{})
	c2 := dial(t, addr, client.Options{})
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
	// The third connection is closed on accept; a ping on it fails after
	// the dial-side succeeds.
	c3, err := client.Dial(addr, client.Options{ReconnectAttempts: 1, Timeout: 2 * time.Second})
	if err == nil {
		defer c3.Close()
		if err := c3.Ping(); err == nil {
			t.Fatal("third connection served despite MaxConns=2")
		}
	}
	if srv.refused.Load() == 0 {
		t.Fatal("refused counter not incremented")
	}
}

// TestIdleReap: a connection with no traffic is reaped after IdleTimeout.
func TestIdleReap(t *testing.T) {
	srv, _, addr := startServer(t, Config{IdleTimeout: 50 * time.Millisecond}, kv.Options{})
	c := dial(t, addr, client.Options{ReconnectAttempts: 1})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.reaped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for srv.active.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("reaped connection still active")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGarbageFrameClosesConn: an oversized length prefix is a protocol
// violation; the server must drop the connection, not crash or stall.
func TestGarbageFrameClosesConn(t *testing.T) {
	_, _, addr := startServer(t, Config{}, kv.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(raw).ReadByte(); err == nil {
		t.Fatal("server responded to a garbage frame instead of closing")
	}
}

// TestMalformedRequestGetsError: sound framing but a bad opcode gets an
// error response and the connection survives.
func TestMalformedRequestGetsError(t *testing.T) {
	_, _, addr := startServer(t, Config{}, kv.Options{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	payload := append(binary.BigEndian.AppendUint64(nil, 7), 99) // unknown opcode, id 7
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	p, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatalf("no response to malformed request: %v", err)
	}
	resp, err := wire.DecodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Status != wire.StatusErr {
		t.Fatalf("response = %+v, want id 7 StatusErr", resp)
	}
	// The connection still works.
	good, _ := wire.AppendRequest(nil, wire.Request{ID: 8, Op: wire.OpPing})
	if _, err := raw.Write(good); err != nil {
		t.Fatal(err)
	}
	p, err = wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, _ := wire.DecodeResponse(p); resp.ID != 8 || resp.Status != wire.StatusOK {
		t.Fatalf("ping after malformed request = %+v", resp)
	}
}
