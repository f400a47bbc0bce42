package client

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rntree/internal/wire"
)

// fakeServer is a minimal in-test wire server: it answers PING/PUT/GET
// from a map, optionally delaying or dropping responses, so client
// behavior is testable without the real serving stack (which has its own
// tests in internal/server).
type fakeServer struct {
	ln net.Listener

	mu      sync.Mutex
	data    map[string][]byte
	conns   int
	dropAll bool          // accept but never respond
	delay   time.Duration // per-request artificial latency
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, data: map[string][]byte{}}
	go fs.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) connCount() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.conns
}

func (fs *fakeServer) acceptLoop() {
	for {
		c, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conns++
		fs.mu.Unlock()
		go fs.serve(c)
	}
}

func (fs *fakeServer) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload[:0]
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		fs.mu.Lock()
		drop, delay := fs.dropAll, fs.delay
		fs.mu.Unlock()
		if drop {
			continue
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		resp := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
		switch req.Op {
		case wire.OpPut:
			fs.mu.Lock()
			fs.data[string(req.Key)] = append([]byte(nil), req.Val...)
			fs.mu.Unlock()
		case wire.OpGet:
			fs.mu.Lock()
			v, ok := fs.data[string(req.Key)]
			fs.mu.Unlock()
			if ok {
				resp.Val = v
			} else {
				resp.Status = wire.StatusNotFound
			}
		}
		frame, _ := wire.AppendResponse(nil, resp)
		c.Write(frame)
	}
}

func TestClientBasics(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("k"))
	if err != nil || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get([]byte("nope")); err != ErrNotFound {
		t.Fatalf("absent Get: %v", err)
	}
}

func TestDialFailsCleanly(t *testing.T) {
	// A port with nothing listening (bind then close to claim one).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	_, err = Dial(addr, Options{ReconnectAttempts: 3, ReconnectBase: 5 * time.Millisecond, ReconnectMax: 20 * time.Millisecond})
	if err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
	// Backoff between the 3 attempts must have actually slept (jitter in
	// [d/2, d] per gap) but stayed bounded.
	if e := time.Since(start); e < 5*time.Millisecond || e > 5*time.Second {
		t.Fatalf("dial retries took %v", e)
	}
}

// TestReconnectAfterConnLoss: the in-flight call fails with ErrConnLost,
// the next call transparently redials.
func TestReconnectAfterConnLoss(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.addr(), Options{ReconnectBase: 2 * time.Millisecond, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Kill the live server connection out from under the client.
	fs.mu.Lock()
	fs.dropAll = true
	fs.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- c.Ping() }()
	// While the ping is parked, sever the connection: the pending call
	// must fail with ErrConnLost (not hang).
	time.Sleep(20 * time.Millisecond)
	c.connMu.Lock()
	if c.cur != nil {
		c.cur.w.Kill() // closes the socket; readLoop sees it and tears down
	}
	c.connMu.Unlock()
	if err := <-done; err != ErrConnLost {
		t.Fatalf("in-flight call after conn loss: %v", err)
	}
	fs.mu.Lock()
	fs.dropAll = false
	fs.mu.Unlock()
	// Next call redials.
	if err := c.Ping(); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
	if fs.connCount() < 2 {
		t.Fatalf("no reconnect observed (%d connections)", fs.connCount())
	}
}

func TestCallTimeout(t *testing.T) {
	fs := newFakeServer(t)
	fs.mu.Lock()
	fs.dropAll = true
	fs.mu.Unlock()
	c, err := Dial(fs.addr(), Options{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Ping(); err != ErrTimeout {
		t.Fatalf("Ping on mute server: %v", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("timeout took %v", e)
	}
}

// TestPipelinedConcurrentCalls: many goroutines share the client; each
// response must route to its caller (the fake server adds latency so
// responses genuinely overlap).
func TestPipelinedConcurrentCalls(t *testing.T) {
	fs := newFakeServer(t)
	fs.mu.Lock()
	fs.delay = time.Millisecond
	fs.mu.Unlock()
	c, err := Dial(fs.addr(), Options{MaxInflight: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := []byte(fmt.Sprintf("key-%d", g))
			v := []byte(fmt.Sprintf("value-%d", g))
			if err := c.Put(k, v); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			got, err := c.Get(k)
			if err != nil || !bytes.Equal(got, v) {
				t.Errorf("Get(%s) = %q, %v (cross-routed response?)", k, got, err)
			}
		}(g)
	}
	wg.Wait()
}

func TestClosedClient(t *testing.T) {
	fs := newFakeServer(t)
	c, err := Dial(fs.addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != ErrClosed {
		t.Fatalf("second Close: %v", err)
	}
	if err := c.Ping(); err != ErrClosed {
		t.Fatalf("Ping after Close: %v", err)
	}
}

// TestLateResponseDropped pins the response-after-timeout contract: a
// server reply arriving after the sweep has already failed its call with
// ErrTimeout must be dropped, never delivered to a later call — even
// though that later call reuses the pooled result channel of the dead one.
// The raw connection lets the test control exactly when each reply frame
// hits the wire.
func TestLateResponseDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	reqs := make(chan wire.Request, 16)
	connCh := make(chan net.Conn, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			return
		}
		connCh <- sc
		br := bufio.NewReader(sc)
		for {
			payload, err := wire.ReadFrame(br, nil)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				return
			}
			req.Key = append([]byte(nil), req.Key...)
			reqs <- req
		}
	}()

	c, err := Dial(ln.Addr().String(), Options{Timeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := <-connCh
	defer sc.Close()

	// Call 1: the server reads the request but withholds the reply until
	// after the sweep fires ErrTimeout.
	if _, err := c.Get([]byte("held")); err != ErrTimeout {
		t.Fatalf("held Get: %v", err)
	}
	req1 := <-reqs

	// Late reply for the dead call, with a poison value. readLoop must find
	// no pending entry for req1.ID (the sweep removed it, and IDs are never
	// reused) and drop the frame on the floor.
	frame, err := wire.AppendResponse(nil, wire.Response{
		ID: req1.ID, Op: wire.OpGet, Status: wire.StatusOK, Val: []byte("POISON"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Write(frame); err != nil {
		t.Fatal(err)
	}

	// Call 2 very likely takes the pooled channel call 1 abandoned. It must
	// complete with its own response, not the poison one.
	go func() {
		req2 := <-reqs
		if req2.ID == req1.ID {
			t.Error("request ID reused across calls")
		}
		f, _ := wire.AppendResponse(nil, wire.Response{
			ID: req2.ID, Op: wire.OpGet, Status: wire.StatusOK, Val: []byte("fresh"),
		})
		sc.Write(f)
	}()
	v, err := c.Get([]byte("next"))
	if err != nil || string(v) != "fresh" {
		t.Fatalf("call after late response got %q, %v (want \"fresh\")", v, err)
	}
}

// TestCloseRaceNoHang races in-flight calls against Close. A call that
// registers its pending entry after Close's teardown sweep has no deliverer
// left — readLoop and sweepLoop are gone — so it must notice, through the
// killed writer refusing its frame, and withdraw the entry instead of
// blocking on its channel forever.
func TestCloseRaceNoHang(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		fs := newFakeServer(t)
		c, err := Dial(fs.addr(), Options{Timeout: time.Second, ReconnectAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Any outcome (success, ErrClosed, ErrConnLost) is fine;
				// the assertion is that every call RETURNS.
				_ = c.Ping()
			}()
		}
		close(start)
		c.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("call hung across Close (orphaned pending entry)")
		}
	}
}

// TestReconnectNoStaleFrames: a server that cuts every connection at its
// fortieth request, under a pipeline that keeps calling across the cuts. A
// call failed with ErrConnLost must never be answered: its frame died with its
// connection generation's writer instead of reaching a later connection. Once
// the client is closed, every goroutine it started has exited.
func TestReconnectNoStaleFrames(t *testing.T) {
	const perConn, reconnects, workers = 40, 10, 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	answered := map[string]bool{}
	conns := 0
	go func() {
		for {
			sc, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns++
			mu.Unlock()
			go func() {
				defer sc.Close()
				br := bufio.NewReader(sc)
				for n := 1; ; n++ {
					payload, err := wire.ReadFrame(br, nil)
					if err != nil {
						return
					}
					req, err := wire.DecodeRequest(payload)
					if err != nil {
						t.Error(err)
						return
					}
					if n == perConn {
						// Cut: answer nothing more. A half-close lets the
						// answers already written reach the client ahead of
						// its EOF; reading on until the client hangs up keeps
						// the close from resetting them.
						sc.(*net.TCPConn).CloseWrite()
						io.Copy(io.Discard, br)
						return
					}
					mu.Lock()
					answered[string(req.Key)] = true
					mu.Unlock()
					frame, _ := wire.AppendResponse(nil, wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK})
					if _, err := sc.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()

	baseline := runtime.NumGoroutine()
	c, err := Dial(ln.Addr().String(), Options{ReconnectBase: time.Millisecond, ReconnectAttempts: 20, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var lost []string
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				done := conns > reconnects
				mu.Unlock()
				if done {
					return
				}
				key := fmt.Sprintf("k%d", seq.Add(1))
				switch err := c.Put([]byte(key), nil); err {
				case nil:
				case ErrConnLost:
					mu.Lock()
					lost = append(lost, key)
					mu.Unlock()
				default:
					t.Errorf("Put: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.Close()

	mu.Lock()
	for _, k := range lost {
		if answered[k] {
			t.Errorf("call %s failed with ErrConnLost, yet a connection carried its frame and answered it", k)
		}
	}
	if len(lost) == 0 {
		t.Error("no call was cut: the test proved nothing")
	}
	t.Logf("%d calls over %d connections, %d cut", seq.Load(), conns, len(lost))
	mu.Unlock()

	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	if n > baseline {
		t.Fatalf("%d goroutines after %d reconnects and Close, %d before Dial", n, reconnects, baseline)
	}
}
