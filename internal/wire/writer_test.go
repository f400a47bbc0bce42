package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeConn records what a Writer writes. A write takes delay; with fail set
// every write fails; with blocking set a write waits until Close, as a write
// to a peer that does not read waits until the socket is closed.
type fakeConn struct {
	net.Conn
	delay    time.Duration
	fail     bool
	blocking bool

	closeOnce sync.Once
	closed    chan struct{}

	mu     sync.Mutex
	writes int
	got    []byte
}

func newFakeConn() *fakeConn { return &fakeConn{closed: make(chan struct{})} }

var errFakeWrite = errors.New("fake write error")

func (c *fakeConn) Write(p []byte) (int, error) {
	if c.blocking {
		<-c.closed
		return 0, net.ErrClosed
	}
	time.Sleep(c.delay)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	if c.fail {
		return 0, errFakeWrite
	}
	c.got = append(c.got, p...)
	return len(p), nil
}

func (c *fakeConn) SetWriteDeadline(time.Time) error { return nil }

func (c *fakeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *fakeConn) stats() (writes int, got []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, append([]byte(nil), c.got...)
}

func frameOf(sender, i int) []byte {
	f, _ := AppendRequest(nil, Request{ID: uint64(sender)<<32 | uint64(i), Op: OpPing})
	return f
}

// TestWriterCoalesces: frames sent by concurrent senders while a write is in
// flight ride the next write, so the socket sees fewer writes than frames,
// and every frame arrives whole.
func TestWriterCoalesces(t *testing.T) {
	const senders, each = 8, 100
	conn := newFakeConn()
	conn.delay = 50 * time.Microsecond
	w := NewWriter(conn, time.Second, nil)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !w.Send(frameOf(s, i)) {
					t.Error("Send refused on a live writer")
					return
				}
			}
		}()
	}
	wg.Wait()
	w.Close()
	writes, got := conn.stats()
	if writes >= senders*each {
		t.Errorf("%d writes for %d frames: nothing coalesced", writes, senders*each)
	}
	seen := map[uint64]bool{}
	for r := bufio.NewReader(bytes.NewReader(got)); ; {
		p, err := ReadFrame(r, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("after %d frames: %v", len(seen), err)
		}
		req, err := DecodeRequest(p)
		if err != nil || seen[req.ID] {
			t.Fatalf("frame %d: %+v, %v (duplicate %v)", len(seen), req, err, seen[req.ID])
		}
		seen[req.ID] = true
	}
	if len(seen) != senders*each {
		t.Errorf("%d of %d frames written", len(seen), senders*each)
	}
	t.Logf("%d frames in %d writes", senders*each, writes)
}

// TestWriterCloseDelivers: Close returns only after every frame queued before
// it is on the socket, in the order it was sent, and the socket is closed.
func TestWriterCloseDelivers(t *testing.T) {
	conn := newFakeConn()
	w := NewWriter(conn, time.Second, nil)
	var want []byte
	for i := 0; i < 1000; i++ {
		f := frameOf(0, i)
		want = append(want, f...)
		w.Send(f)
	}
	w.Close()
	if _, got := conn.stats(); !bytes.Equal(got, want) {
		t.Fatalf("%d of %d bytes written, or out of order", len(got), len(want))
	}
	select {
	case <-conn.closed:
	default:
		t.Error("socket left open after Close")
	}
	if w.Send(frameOf(0, 1000)) {
		t.Error("Send accepted a frame after Close")
	}
}

// TestWriterErrorOnce: a failed write reaches the error callback exactly once,
// however many frames were queued, and later sends neither block nor write.
func TestWriterErrorOnce(t *testing.T) {
	conn := newFakeConn()
	conn.fail = true
	var calls atomic.Int32
	failed := make(chan struct{})
	w := NewWriter(conn, time.Second, func(err error) {
		if !errors.Is(err, errFakeWrite) {
			t.Errorf("callback got %v", err)
		}
		if calls.Add(1) == 1 {
			close(failed)
		}
	})
	for i := 0; i < 10; i++ {
		w.Send(frameOf(0, i))
	}
	<-failed
	writes, _ := conn.stats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			if w.Send(frameOf(1, i)) {
				t.Error("Send accepted a frame after the write error")
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send blocked on a failed writer")
	}
	w.Close()
	if n := calls.Load(); n != 1 {
		t.Errorf("error callback ran %d times, want 1", n)
	}
	if after, _ := conn.stats(); after != writes {
		t.Errorf("%d writes after the failure", after-writes)
	}
}

// TestWriterBacklog: the backlog counts sent bytes until they are written and
// returns to 0; AwaitBacklog wakes on the writer's progress, on Kill and on
// its stop flag.
func TestWriterBacklog(t *testing.T) {
	conn := newFakeConn()
	conn.delay = 100 * time.Microsecond
	w := NewWriter(conn, time.Second, nil)
	for i := 0; i < 200; i++ {
		w.Send(frameOf(0, i))
	}
	if !w.AwaitBacklog(0, nil) {
		t.Fatal("AwaitBacklog reported a dead writer")
	}
	if b := w.Backlog(); b != 0 {
		t.Fatalf("backlog %d after AwaitBacklog(0)", b)
	}
	w.Close()
	if _, got := conn.stats(); len(got) != 200*len(frameOf(0, 0)) {
		t.Fatalf("%d bytes written", len(got))
	}

	// A peer that never reads: the write blocks and the backlog stays up.
	stuck := newFakeConn()
	stuck.blocking = true
	w = NewWriter(stuck, time.Second, nil)
	w.Send(frameOf(0, 0))
	var stop atomic.Bool
	woken := make(chan bool, 2)
	go func() { woken <- w.AwaitBacklog(0, &stop) }()
	go func() { woken <- w.AwaitBacklog(0, nil) }()
	stop.Store(true)
	w.Wake()
	if alive := <-woken; !alive {
		t.Fatal("the stop flag's waiter saw a dead writer")
	}
	w.Kill()
	if alive := <-woken; alive {
		t.Fatal("AwaitBacklog reported a killed writer alive")
	}
	w.Close()
}
