package wire

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Writer is a connection's coalescing frame writer, the one both ends of the
// protocol use: the server answers through one per connection and the client
// sends through one per connection generation. Senders append encoded frames
// to a shared buffer under one mutex and nudge the writer goroutine, which
// swaps the buffer out and writes it with one syscall. At pipelined rates the
// syscall is the expensive part of a frame, and every frame queued while a
// write is in flight rides the next one, so the syscall count scales with
// write bursts, not with frames.
//
// The writer owns the socket's close: Kill closes it at once, a failed write
// once onErr has returned, Close after the last queued frame is written.
type Writer struct {
	c       net.Conn
	timeout time.Duration
	onErr   func(error)

	mu       sync.Mutex
	buf      []byte
	progress sync.Cond // L = &mu; broadcast at every swap, Kill and Wake

	sig      chan struct{} // cap 1: "buf is non-empty" (or "re-check dead")
	stop     chan struct{} // closed by Close
	stopOnce sync.Once
	done     chan struct{} // closed when the writer goroutine has exited

	dead    atomic.Bool  // killed, failed or closed: Send drops frames
	backlog atomic.Int64 // bytes Send has taken that have not reached the socket
	armed   time.Time    // writer goroutine only: when the deadline was last set
}

// writerIdleYields is how many scheduler yields the writer goroutine makes
// with an empty buffer before parking on its signal channel. See run.
const writerIdleYields = 4

// NewWriter starts the writer goroutine for c. timeout bounds one write; the
// deadline is re-armed at most every timeout/4, since a timer-heap update per
// write is measurable at pipelined rates and the timeout needs no precision.
// onErr, if not nil, receives the first write error, once, on the writer
// goroutine, once Send refuses frames; the socket closes when it returns. It
// must not call Close.
func NewWriter(c net.Conn, timeout time.Duration, onErr func(error)) *Writer {
	w := &Writer{
		c:       c,
		timeout: timeout,
		onErr:   onErr,
		sig:     make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.progress.L = &w.mu
	go w.run()
	return w
}

// Send queues one or more encoded frames. frame is copied before Send
// returns, so the caller may reuse it. Send reports false, dropping the
// frames, once the writer is dead.
func (w *Writer) Send(frame []byte) bool {
	if w.dead.Load() {
		return false
	}
	w.backlog.Add(int64(len(frame)))
	w.mu.Lock()
	w.buf = append(w.buf, frame...)
	w.mu.Unlock()
	w.signal()
	return true
}

// Backlog returns how many sent bytes have not reached the socket yet.
func (w *Writer) Backlog() int64 { return w.backlog.Load() }

// AwaitBacklog blocks while more than limit bytes are unwritten, the writer
// is alive and stop (if not nil) is unset; a caller that sets stop must call
// Wake afterwards. It reports whether the writer is still alive.
func (w *Writer) AwaitBacklog(limit int64, stop *atomic.Bool) bool {
	if w.backlog.Load() > limit {
		w.mu.Lock()
		for w.backlog.Load() > limit && !w.dead.Load() && (stop == nil || !stop.Load()) {
			w.progress.Wait()
		}
		w.mu.Unlock()
	}
	return !w.dead.Load()
}

// Wake makes every AwaitBacklog re-check its condition.
func (w *Writer) Wake() {
	w.mu.Lock()
	w.progress.Broadcast()
	w.mu.Unlock()
}

// Kill tears the connection down without waiting: queued frames are dropped,
// later sends are refused, the socket is closed (failing a write in flight)
// and every waiter is woken. Safe from any goroutine, any number of times.
func (w *Writer) Kill() {
	w.dead.Store(true)
	w.c.Close()
	w.Wake()
	w.signal()
}

// Close writes every frame queued before it, closes the socket and returns
// once the writer goroutine has exited. It must not be called from onErr.
func (w *Writer) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Writer) signal() {
	select {
	case w.sig <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: each wakeup swaps the accumulated buffer out
// under the lock and writes it with one syscall. After stop it drains what
// the senders left and exits, which is what makes a frame handed to Send
// before Close reach the socket.
func (w *Writer) run() {
	defer func() {
		w.dead.Store(true)
		w.c.Close()
		w.Wake()
		close(w.done)
	}()
	var spare []byte
	for {
		stopping := false
		select {
		case <-w.sig:
			// One yield before swapping: a channel wakeup schedules this
			// writer ahead of the rest of the just-woken burst (the runnext
			// slot), which would mean one tiny write per frame. Yielding
			// lets the other senders of the burst append first, so the swap
			// takes the whole burst in one write.
			runtime.Gosched()
		case <-w.stop:
			stopping = true
		}
		for idle := 0; ; {
			w.mu.Lock()
			// Every write is followed by a swap, so broadcasting here tells
			// AwaitBacklog about each write's progress without a lock of
			// its own.
			w.progress.Broadcast()
			buf := w.buf
			w.buf = spare[:0]
			w.mu.Unlock()
			if w.dead.Load() {
				return
			}
			if len(buf) == 0 {
				// Before parking, yield a few beats with the buffer empty: at
				// saturation the senders refill it within a scheduler pass or
				// two, and picking the frames up here coalesces several per
				// write syscall. When the connection is idle the yields
				// return immediately and the writer parks on sig.
				spare = buf
				if stopping || idle >= writerIdleYields {
					break
				}
				idle++
				runtime.Gosched()
				continue
			}
			idle = 0
			if now := time.Now(); now.Sub(w.armed) > w.timeout/4 {
				w.c.SetWriteDeadline(now.Add(w.timeout))
				w.armed = now
			}
			_, err := w.c.Write(buf)
			spare = buf[:0]
			if err != nil {
				if !w.dead.Swap(true) && w.onErr != nil {
					w.onErr(err)
				}
				return
			}
			w.backlog.Add(-int64(len(buf)))
		}
		if stopping {
			return
		}
	}
}
