package repl

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"rntree/internal/sync2"
	"rntree/internal/wire"
)

// ApplierConfig tunes a replica's connection to its primary.
type ApplierConfig struct {
	// Addr is the primary's listen address.
	Addr string
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// RetryBase/RetryMax bound the jittered reconnect backoff
	// (defaults 10ms and 500ms).
	RetryBase time.Duration
	RetryMax  time.Duration
}

func (c *ApplierConfig) normalize() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 500 * time.Millisecond
	}
}

// RunApplier runs the replica side of the replication stream: dial the
// primary, handshake (HELLO: roles and epochs), subscribe from this store's
// durable per-partition watermarks, then apply the record stream a burst at
// a time and ack each — the cumulative watermark vector. A burst is one
// frame and every further frame already whole in the reader, applied with
// one ReplApply; so after it no whole frame is buffered, and a partial one
// does not hold back the ack of the records before it. A lone record is
// acked at once, a burst once, and the 64 KiB reader bounds how far an ack
// can trail; there is no ack counter or timer.
// Connection loss reconnects with jittered backoff and resubscribes from
// the durable watermarks — records shipped twice are skipped by ReplApply's
// LSN idempotency, so crash-reconnect loses nothing and duplicates nothing.
// Blocks until Stop (via Node.Close) or promotion; only setup errors (bad
// config, applier already running) are returned.
func (n *Node) RunApplier(cfg ApplierConfig) error {
	cfg.normalize()
	stopc := make(chan struct{})
	var once sync.Once
	stop := func() { once.Do(func() { close(stopc) }) }
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("repl: node closed")
	}
	if n.applierStop != nil {
		n.mu.Unlock()
		return fmt.Errorf("repl: applier already running")
	}
	n.applierStop = stop
	n.mu.Unlock()
	defer func() {
		stop()
		n.mu.Lock()
		n.applierStop = nil
		n.mu.Unlock()
	}()

	for attempt := 0; ; attempt++ {
		if n.Role() != Replica {
			return nil
		}
		select {
		case <-stopc:
			return nil
		default:
		}
		if err := n.applyStream(cfg, stopc); err == nil {
			attempt = -1 // clean server-side close: reset the backoff
		}
		select {
		case <-stopc:
			return nil
		case <-time.After(sync2.RetryDelay(attempt, cfg.RetryBase, cfg.RetryMax)):
		}
	}
}

// applyStream is one connection's worth of the applier loop.
func (n *Node) applyStream(cfg ApplierConfig, stopc <-chan struct{}) error {
	c, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return err
	}
	defer c.Close()
	closed := make(chan struct{})
	defer close(closed)
	go func() {
		select {
		case <-stopc:
			c.Close() // unblock the reader
		case <-closed:
		}
	}()

	br := bufio.NewReaderSize(c, 64<<10)
	var frame []byte
	writeReq := func(req wire.Request) (err error) {
		if frame, err = wire.AppendRequest(frame[:0], req); err != nil {
			return err
		}
		_, err = c.Write(frame)
		return err
	}
	readResp := func(buf []byte) (wire.Response, []byte, error) {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			return wire.Response{}, buf, err
		}
		resp, err := wire.DecodeResponse(payload)
		return resp, payload, err
	}

	// HELLO: exchange roles and epochs.
	if err := writeReq(wire.Request{ID: 1, Op: wire.OpReplHello, ReplRole: Replica, ReplEpoch: n.Epoch()}); err != nil {
		return err
	}
	var buf []byte
	resp, buf, err := readResp(buf)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("repl: hello rejected: status %d: %s", resp.Status, resp.Msg)
	}
	if resp.ReplRole != Primary {
		return fmt.Errorf("repl: %s is not a primary (role %d)", cfg.Addr, resp.ReplRole)
	}
	if resp.ReplEpoch < n.Epoch() {
		// A deposed primary that came back: its epoch predates one we have
		// already followed (or our own promotion). Following it could
		// split-brain; refuse and retry — operators re-seed old primaries.
		return fmt.Errorf("repl: stale primary %s: epoch %d < ours %d", cfg.Addr, resp.ReplEpoch, n.Epoch())
	}
	if err := n.adoptEpoch(resp.ReplEpoch); err != nil {
		return err
	}

	// SUBSCRIBE from our durable watermarks: everything at or below them is
	// already applied and persisted here.
	if err := writeReq(wire.Request{ID: 2, Op: wire.OpReplSubscribe, ReplLSNs: n.st.ReplLSNs()}); err != nil {
		return err
	}
	resp, buf, err = readResp(buf)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("repl: subscribe rejected: status %d: %s", resp.Status, resp.Msg)
	}

	// ackv holds the durable watermarks (ReplApply returned ⇒ applied and
	// persisted). recs and vals are the burst's records and the one scratch
	// buffer their keys and values are copied into, both reused: the frame
	// buffer is overwritten by the next frame.
	ackv := n.st.ReplLSNs()
	ackSeq := uint64(2)
	var recs []Record
	var vals []byte
	for {
		recs, vals = recs[:0], vals[:0]
		// A burst is one frame read, blocking if it must, and every further
		// frame already whole in the reader's buffer.
		for len(recs) == 0 || wire.FrameBuffered(br) {
			resp, buf, err = readResp(buf)
			if err != nil {
				select {
				case <-stopc:
					return nil
				default:
				}
				return err
			}
			if resp.Op != wire.OpReplRecord || resp.Status != wire.StatusOK {
				return fmt.Errorf("repl: unexpected frame on subscription (op %d, status %d)", resp.Op, resp.Status)
			}
			part := int(resp.ReplPart)
			if part < 0 || part >= len(ackv) {
				return fmt.Errorf("repl: record for partition %d, store has %d", part, len(ackv))
			}
			// An append that moves vals leaves the earlier records' slices on
			// the old array, whose bytes stay as they were copied.
			k := len(vals)
			vals = append(append(vals, resp.Key...), resp.Val...)
			v := k + len(resp.Key)
			recs = append(recs, Record{Part: part, LSN: resp.ReplLSN, Kind: resp.ReplKind,
				Key: vals[k:v:v], Val: vals[v:len(vals):len(vals)]})
		}
		err := n.st.ReplApply(recs)
		// The hook runs for each record the store now holds, in order: on an
		// error, those at or below their partition's watermark.
		hook := n.applyHook.Load()
		for i := range recs {
			r := &recs[i]
			if err != nil && r.LSN > n.st.ReplLSN(r.Part) {
				continue
			}
			n.applied.Add(1)
			if hook != nil {
				(*hook)(r.Kind, r.Key, r.Val)
			}
			ackv[r.Part] = max(ackv[r.Part], r.LSN)
		}
		clear(recs) // drop the references into old scratch arrays
		if err != nil {
			return err
		}
		// No whole frame is buffered, so the burst is applied: ack it.
		ackSeq++
		if err := writeReq(wire.Request{ID: ackSeq, Op: wire.OpReplAck, ReplLSNs: ackv}); err != nil {
			return err
		}
	}
}
