package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/wire"
	"rntree/kv"
)

// TestGracefulDrainZeroLostAcks is the acceptance test for the serving
// layer's durability contract: clients hammer acknowledged Puts while the
// server is SIGTERMed mid-traffic (Shutdown + Checkpoint, exactly the
// rnserved signal path); after recovery from the checkpoint images, every
// single acknowledged write must be present. In-flight requests may fail
// with connection/closing errors — those were never acknowledged and carry
// no promise.
func TestGracefulDrainZeroLostAcks(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 16, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Batch: BatchConfig{MaxBatch: 32}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const writers = 12
	acked := make([]map[string]string, writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		acked[w] = map[string]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{ReconnectAttempts: 1, Timeout: 10 * time.Second})
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("w%d-%d", w, i)
				v := fmt.Sprintf("v%d-%d-%d", w, i, i*7)
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					// Acceptable only while the server goes away.
					return
				}
				acked[w][k] = v
			}
		}(w)
	}

	// Let traffic build, then pull the trigger mid-flight.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	close(stop)
	wg.Wait()

	// The rnserved signal path: checkpoint after drain. It must
	// succeed — the drain guaranteed quiescence.
	imgs, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint after drain: %v", err)
	}

	s2, err := kv.Open(imgs, kv.Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	total, lost := 0, 0
	for w := range acked {
		for k, v := range acked[w] {
			total++
			got, err := s2.Get([]byte(k))
			if err != nil || !bytes.Equal(got, []byte(v)) {
				lost++
				t.Errorf("acked write lost: %s (%v)", k, err)
			}
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before the drain; test proved nothing")
	}
	if lost != 0 {
		t.Fatalf("%d of %d acknowledged writes lost across drain+recovery", lost, total)
	}
	t.Logf("%d acknowledged writes, 0 lost", total)
}

// TestShutdownFinishesInflight: requests already read when the drain
// starts are executed and answered before their connection closes.
func TestShutdownFinishesInflight(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("pre"), []byte("drain")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// New connections are refused after drain.
	if _, err := client.Dial(ln.Addr().String(), client.Options{ReconnectAttempts: 1, DialTimeout: 500 * time.Millisecond}); err == nil {
		// Dial may succeed at TCP level only if the listener re-binds
		// raced; a ping must certainly fail.
		t.Log("dial after shutdown succeeded at TCP level (listener closed; acceptable only if ping fails)")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store close after drain: %v", err)
	}
	if v, err := st.Get([]byte("pre")); err != nil || string(v) != "drain" {
		t.Fatalf("pre-drain write missing: %q, %v", v, err)
	}
}

// TestShutdownDeadline: a wedged client cannot hold the drain hostage —
// the context deadline forces teardown.
func TestShutdownDeadline(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{IdleTimeout: time.Hour})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// A raw connection that never reads its responses and never sends a
	// full frame: it holds a partial header.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.Write([]byte{0, 0})
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	srv.Shutdown(ctx) // error (deadline) or nil both acceptable; must return promptly
	if since := time.Since(start); since > 3*time.Second {
		t.Fatalf("Shutdown took %v despite deadline", since)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestShutdownAnswersEveryReadGet: a GET is answered from the reader's own
// buffer, which a drain must hand to the writer like any other completion.
// A client pipelines GETs without pause while the server is shut down; every
// request the server read (its requests counter) must have its response on
// the wire before the connection closes. The connection is a net.Pipe: a TCP
// socket closed with requests still unread resets, and a reset may discard
// responses the peer had not received yet, which is TCP's doing, not ours.
func TestShutdownAnswersEveryReadGet(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{Cache: CacheConfig{Enable: true}})
	raw, served := net.Pipe()
	defer raw.Close()
	if !srv.register(served) {
		t.Fatal("connection refused")
	}

	var segment []byte
	for i := 0; i < 100; i++ {
		segment, _ = wire.AppendRequest(segment, wire.Request{ID: uint64(i + 1), Op: wire.OpGet, Key: []byte("k")})
	}
	go func() { // until the drained server closes the connection
		for {
			if _, err := raw.Write(segment); err != nil {
				return
			}
		}
	}()
	answered := make(chan int, 1)
	go func() {
		br, n := bufio.NewReader(raw), 0
		for {
			p, err := wire.ReadFrame(br, nil)
			if err != nil {
				answered <- n
				return
			}
			if resp, err := wire.DecodeResponse(p); err != nil || resp.Status != wire.StatusOK || string(resp.Val) != "v" {
				t.Errorf("response %d: %+v, %v", n, resp, err)
			}
			n++
		}
	}()

	for srv.requests.Load() < 1000 { // mid-traffic
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got, read := <-answered, int(srv.requests.Load()); got != read {
		t.Fatalf("server read %d GETs and answered %d", read, got)
	}
}
