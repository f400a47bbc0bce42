// Package client is the Go client for rnserved, the RNTree kv network
// server. One Client multiplexes any number of goroutines over a single
// pipelined connection: each call is assigned a request ID, written to the
// shared socket, and matched to its (possibly out-of-order) response by a
// background reader — so N concurrent callers get N-deep pipelining with
// no per-call connection cost.
//
// The client reconnects lazily with jittered exponential backoff (the same
// desynchronization shape the HTM layer uses for conflict retries: each
// delay is jittered into [d/2, d], so a fleet of clients that lost the same
// server does not reconnect in lock-step). Calls that were in flight when
// the connection died fail with ErrConnLost — the caller cannot know whether
// a lost PUT committed, exactly like any at-most-once RPC — and subsequent
// calls transparently use the new connection.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rntree/internal/sync2"
	"rntree/internal/wire"
)

// Client errors.
var (
	// ErrClosed is returned by calls on a Close()d client.
	ErrClosed = errors.New("client: closed")
	// ErrNotFound is returned by Get/Delete for absent keys.
	ErrNotFound = errors.New("client: key not found")
	// ErrOverloaded is the server's backpressure rejection; back off and
	// retry.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrClosing means the server is draining; reconnect later.
	ErrClosing = errors.New("client: server closing")
	// ErrTimeout is a per-call timeout; the request may still execute.
	ErrTimeout = errors.New("client: request timed out")
	// ErrConnLost fails calls whose connection died mid-flight; mutations
	// may or may not have committed.
	ErrConnLost = errors.New("client: connection lost")
	// ErrReadOnly means the server is a replica: writes go to the primary
	// (or the replica must be promoted first — see Failover).
	ErrReadOnly = errors.New("client: server is a read-only replica")
	// ErrDial wraps connection-establishment failures.
	ErrDial = errors.New("client: dial failed")
	// ErrNoRepl is returned by ReplState/Promote against a server without
	// replication enabled.
	ErrNoRepl = errors.New("client: replication not enabled on server")
)

// Replication roles as reported by ReplState.
const (
	RolePrimary = wire.RolePrimary
	RoleReplica = wire.RoleReplica
)

// Options tune a Client. Zero values take the documented defaults.
type Options struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// Timeout bounds one call, write to response (default 5s).
	Timeout time.Duration
	// MaxInflight caps pipelined requests on the connection (default 64 —
	// match the server's per-connection limit; deeper pipelines would
	// stall in TCP anyway).
	MaxInflight int
	// ReconnectAttempts is how many dials one call will try before
	// failing (default 5).
	ReconnectAttempts int
	// ReconnectBase/ReconnectMax bound the jittered exponential backoff
	// between dials (defaults 10ms and 1s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// OverloadRetries is how many times a call rejected with
	// StatusOverloaded is retried, each retry preceded by the same jittered
	// exponential backoff the reconnect path uses (0 disables: the call
	// returns ErrOverloaded immediately). Overload rejections happen before
	// the store is touched, so retrying mutations is safe.
	OverloadRetries int
}

func (o *Options) normalize() {
	if o.DialTimeout == 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 64
	}
	if o.ReconnectAttempts == 0 {
		o.ReconnectAttempts = 5
	}
	if o.ReconnectBase == 0 {
		o.ReconnectBase = 10 * time.Millisecond
	}
	if o.ReconnectMax == 0 {
		o.ReconnectMax = time.Second
	}
}

// KV is one key/value pair returned by Scan.
type KV struct {
	Key, Value []byte
}

// result is one response delivery.
type result struct {
	resp wire.Response
	err  error
}

// pending is one in-flight call.
type pending struct {
	gen      uint64
	deadline time.Time
	ch       chan result
}

// link is one connection generation: the writer its calls send on, started
// beside its readLoop, and the number their pending entries carry.
type link struct {
	c   *Client
	gen uint64
	w   *wire.Writer
}

// writeFailed is the writer's error callback: a failed write tears the
// link's generation down.
func (l *link) writeFailed(error) { l.c.teardown(l.gen, ErrConnLost) }

// Client is a concurrency-safe pipelined connection to one server.
type Client struct {
	addr string
	opts Options

	sem    chan struct{} // inflight tokens
	nextID atomic.Uint64
	closed atomic.Bool

	// connMu guards connection (re)establishment. Calls send on the writer
	// of the link they registered under, so a frame for a torn-down
	// generation dies with that generation's writer and never reaches a
	// later connection.
	connMu sync.Mutex
	cur    *link  // nil between a teardown and the next dial
	gen    uint64 // bumped on every dial

	pendMu sync.Mutex
	pend   map[uint64]pending
}

// Dial connects to an rnserved address. The first connection is
// established eagerly so configuration errors surface here.
func Dial(addr string, opts Options) (*Client, error) {
	opts.normalize()
	c := &Client{
		addr: addr,
		opts: opts,
		sem:  make(chan struct{}, opts.MaxInflight),
		pend: map[uint64]pending{},
	}
	c.connMu.Lock()
	if _, err := c.ensureConnLocked(opts.ReconnectAttempts); err != nil {
		c.connMu.Unlock()
		return nil, err
	}
	c.connMu.Unlock()
	go c.sweepLoop()
	return c, nil
}

// sweepLoop enforces call timeouts in bulk: every Timeout/4 it fails the
// pending calls whose deadline has passed. A per-call runtime timer — even
// a pooled one — costs two timer-heap updates per request, which is
// measurable at pipelined rates; the sweep makes timeout enforcement
// O(sweeps) instead of O(calls), at the price of ErrTimeout arriving up to
// a quarter-Timeout late. The loop exits (within one sweep interval) after
// Close.
func (c *Client) sweepLoop() {
	interval := c.opts.Timeout / 4
	if interval > 500*time.Millisecond {
		interval = 500 * time.Millisecond
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	for !c.closed.Load() {
		time.Sleep(interval)
		now := time.Now()
		var expired []chan result
		c.pendMu.Lock()
		for id, p := range c.pend {
			if now.After(p.deadline) {
				delete(c.pend, id)
				expired = append(expired, p.ch)
			}
		}
		c.pendMu.Unlock()
		// Deliveries happen after the map removal, so each registration
		// still gets exactly one result (late responses are dropped by
		// readLoop when the ID is gone).
		for _, ch := range expired {
			ch <- result{err: ErrTimeout}
		}
	}
}

// sleepBackoff sleeps for attempt's slot of the jittered exponential
// schedule from ReconnectBase up to ReconnectMax.
func (c *Client) sleepBackoff(attempt int) {
	time.Sleep(sync2.RetryDelay(attempt, c.opts.ReconnectBase, c.opts.ReconnectMax))
}

// ensureConnLocked returns the live connection's link, dialing with backoff
// if needed. Caller holds connMu.
func (c *Client) ensureConnLocked(attempts int) (*link, error) {
	if c.cur != nil {
		return c.cur, nil
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.sleepBackoff(a - 1)
		}
		if c.closed.Load() {
			return nil, ErrClosed
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c.gen++
		l := &link{c: c, gen: c.gen}
		l.w = wire.NewWriter(conn, c.opts.Timeout, l.writeFailed)
		c.cur = l
		go c.readLoop(conn, l.gen)
		return l, nil
	}
	return nil, fmt.Errorf("%w: %s: %v", ErrDial, c.addr, lastErr)
}

// teardown retires a broken connection generation — its writer drops what
// it holds and closes the socket — and fails its pending calls. Later
// generations are untouched.
func (c *Client) teardown(gen uint64, cause error) {
	c.connMu.Lock()
	if c.cur != nil && c.cur.gen == gen {
		c.cur.w.Kill()
		c.cur = nil
	}
	c.connMu.Unlock()
	c.pendMu.Lock()
	for id, p := range c.pend {
		if p.gen == gen {
			delete(c.pend, id)
			p.ch <- result{err: cause}
		}
	}
	c.pendMu.Unlock()
}

// readLoop pumps responses for one connection generation and routes them
// by request ID.
func (c *Client) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		payload, err := wire.ReadFrame(br, buf)
		if err != nil {
			cause := ErrConnLost
			if c.closed.Load() {
				cause = ErrClosed
			}
			c.teardown(gen, cause)
			return
		}
		buf = payload[:0]
		resp, err := wire.DecodeResponse(payload)
		if err != nil {
			// A malformed response means the stream framing can no
			// longer be trusted.
			c.teardown(gen, fmt.Errorf("client: protocol error: %w", err))
			return
		}
		// Own the bytes beyond this frame.
		resp.Val = append([]byte(nil), resp.Val...)
		for i := range resp.Pairs {
			resp.Pairs[i].Key = append([]byte(nil), resp.Pairs[i].Key...)
			resp.Pairs[i].Val = append([]byte(nil), resp.Pairs[i].Val...)
		}
		for i := range resp.Members {
			resp.Members[i] = append([]byte(nil), resp.Members[i]...)
		}
		c.pendMu.Lock()
		p, ok := c.pend[resp.ID]
		if ok {
			delete(c.pend, resp.ID)
		}
		c.pendMu.Unlock()
		if ok {
			p.ch <- result{resp: resp}
		}
		// Unmatched IDs are late responses to calls already failed by the
		// timeout sweep or a teardown. IDs are never reused, so such a
		// response cannot belong to any other caller: dropping it here is
		// the whole response-after-timeout story.
	}
}

// do executes one pipelined request/response exchange.
func (c *Client) do(req wire.Request) (wire.Response, error) {
	if c.closed.Load() {
		return wire.Response{}, ErrClosed
	}
	c.sem <- struct{}{}
	defer func() { <-c.sem }()

	c.connMu.Lock()
	l, err := c.ensureConnLocked(c.opts.ReconnectAttempts)
	c.connMu.Unlock()
	if err != nil {
		return wire.Response{}, err
	}

	req.ID = c.nextID.Add(1)
	fp := framePool.Get().(*[]byte)
	frame, err := wire.AppendRequest((*fp)[:0], req)
	if err != nil {
		framePool.Put(fp)
		return wire.Response{}, err
	}
	*fp = frame
	// Response-after-timeout audit (why a late response can never complete
	// a different caller's call): request IDs come from a monotonic counter
	// and are NEVER reused, so a response outliving its call matches no
	// other caller's pend entry — readLoop drops it. The result channel IS
	// reused (chanPool), but only after its previous registration was
	// delivered: removal of the pend entry under pendMu is the single
	// commit point, exactly one of readLoop / teardown / sweepLoop wins it,
	// and only the winner sends on the channel. A channel coming out of the
	// pool is therefore always empty.
	ch := chanPool.Get().(chan result)
	c.pendMu.Lock()
	c.pend[req.ID] = pending{gen: l.gen, deadline: time.Now().Add(c.opts.Timeout), ch: ch}
	c.pendMu.Unlock()

	// Send AFTER registering: every writer death (a write error, a
	// teardown, Close) is followed by its generation's sweep of the pending
	// map, so a frame the writer took has a deliverer for its entry. A writer
	// already dead refuses the frame, and that sweep may have run before we
	// registered: withdraw the entry ourselves. Losing the withdrawal race
	// just means a delivery is already committed — take it.
	sent := l.w.Send(frame)
	framePool.Put(fp)
	if !sent {
		c.pendMu.Lock()
		_, mine := c.pend[req.ID]
		delete(c.pend, req.ID)
		c.pendMu.Unlock()
		if mine {
			chanPool.Put(ch)
			if c.closed.Load() {
				return wire.Response{}, ErrClosed
			}
			return wire.Response{}, ErrConnLost
		}
	}

	// Exactly one of readLoop (the response), teardown (connection loss or
	// Close) or sweepLoop (timeout) removes our pend entry and delivers —
	// so this receive always completes and the channel is empty and
	// reusable afterwards.
	r := <-ch
	chanPool.Put(ch)
	if r.err != nil {
		return wire.Response{}, r.err
	}
	return r.resp, nil
}

// framePool recycles request-frame buffers (as *[]byte, so a round trip
// through the pool allocates nothing): Send copies the frame into the
// writer's buffer, so the buffer is dead as soon as Send returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// chanPool recycles result channels: a pending entry's channel receives
// exactly one delivery per registration, so after do's receive it is empty
// and safe to reuse.
var chanPool = sync.Pool{New: func() any { return make(chan result, 1) }}

// statusErr maps a non-OK response to a client error.
func statusErr(r wire.Response) error {
	switch r.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusOverloaded:
		return ErrOverloaded
	case wire.StatusClosing:
		return ErrClosing
	case wire.StatusReadOnly:
		return ErrReadOnly
	case wire.StatusNoRepl:
		return ErrNoRepl
	case wire.StatusErr:
		return fmt.Errorf("client: server error: %s", r.Msg)
	}
	return fmt.Errorf("client: unknown status %d", r.Status)
}

// doRetry is do plus the opt-in overload retry: a StatusOverloaded
// response is retried up to OverloadRetries times, each attempt preceded
// by a jittered exponential backoff slot. Every retry is a fresh request
// (new ID); the server rejected the original before touching the store.
func (c *Client) doRetry(req wire.Request) (wire.Response, error) {
	r, err := c.do(req)
	for a := 0; err == nil && r.Status == wire.StatusOverloaded && a < c.opts.OverloadRetries; a++ {
		c.sleepBackoff(a)
		r, err = c.do(req)
	}
	return r, err
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	r, err := c.doRetry(wire.Request{Op: wire.OpPing})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// Get returns the value stored under key.
func (c *Client) Get(key []byte) ([]byte, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	return r.Val, nil
}

// Put stores key → value. A nil return means the write is durable on the
// server.
func (c *Client) Put(key, value []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpPut, Key: key, Val: value})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// Delete removes key.
func (c *Client) Delete(key []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpDel, Key: key})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// Scan returns up to max live pairs whose key starts with prefix (nil
// prefix matches everything), in unspecified order.
func (c *Client) Scan(prefix []byte, max int) ([]KV, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpScan, ScanPrefix: prefix, ScanMax: uint32(max)})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	out := make([]KV, len(r.Pairs))
	for i, p := range r.Pairs {
		out[i] = KV{Key: p.Key, Value: p.Val}
	}
	return out, nil
}

// Stats returns the server's named counters (store stats plus serving
// counters; see DESIGN.md §10).
func (c *Client) Stats() (map[string]uint64, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(r.Counters))
	for _, ctr := range r.Counters {
		out[ctr.Name] = ctr.Val
	}
	return out, nil
}

// PutDurable stores key → value and waits for the server to confirm the
// write is persisted on a replica as well (the wire Durable flag): a nil
// return survives the loss of either node. Fails with a server error when
// no replica catches up within the server's durable timeout — the write is
// still committed on the primary in that case.
func (c *Client) PutDurable(key, value []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpPut, Key: key, Val: value, Durable: true})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// HSet stores field → value inside the hash object named key, creating the
// hash if absent. The commit is crash-atomic on the server even though it
// touches multiple records (see the server's typed-object layer).
func (c *Client) HSet(key, field, value []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpHSet, Key: key, Field: field, Val: value})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// HGet returns the value of field in the hash named key. ErrNotFound means
// the hash, or the field, is absent (or the key's TTL has lapsed).
func (c *Client) HGet(key, field []byte) ([]byte, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpHGet, Key: key, Field: field})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	return r.Val, nil
}

// HDel removes field from the hash named key; removing the last field
// removes the hash itself.
func (c *Client) HDel(key, field []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpHDel, Key: key, Field: field})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// SAdd adds member to the set named key, creating the set if absent.
// Adding a resident member is a no-op.
func (c *Client) SAdd(key, member []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpSAdd, Key: key, Field: member})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// SRem removes member from the set named key; removing the last member
// removes the set itself.
func (c *Client) SRem(key, member []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpSRem, Key: key, Field: member})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// SMembers returns every member of the set named key, in unspecified
// order. An absent (or expired) set returns an empty slice, like Redis.
func (c *Client) SMembers(key []byte) ([][]byte, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpSMembers, Key: key})
	if err != nil {
		return nil, err
	}
	if err := statusErr(r); err != nil {
		return nil, err
	}
	return r.Members, nil
}

// Expire sets key's time-to-live in milliseconds; after it lapses the key
// reads as absent and is reaped in the background. Works on flat keys and
// typed objects alike. ErrNotFound means the key does not exist.
func (c *Client) Expire(key []byte, ttlMs uint64) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpExpire, Key: key, TTLMs: ttlMs})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// TTL returns key's remaining time-to-live in milliseconds, or -1 when the
// key exists without a TTL. ErrNotFound means the key is absent or its TTL
// has already lapsed.
func (c *Client) TTL(key []byte) (int64, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpTTL, Key: key})
	if err != nil {
		return 0, err
	}
	if err := statusErr(r); err != nil {
		return 0, err
	}
	return r.TTL, nil
}

// Persist removes key's TTL, if any; the key then lives until deleted.
func (c *Client) Persist(key []byte) error {
	r, err := c.doRetry(wire.Request{Op: wire.OpPersist, Key: key})
	if err != nil {
		return err
	}
	return statusErr(r)
}

// ReplState asks the server for its replication role, epoch and
// per-partition LSN vector (the REPL.HELLO handshake, sent as an
// observer). ErrNoRepl (the wire.StatusNoRepl code, not a message match)
// means the server has replication disabled.
func (c *Client) ReplState() (role uint8, epoch uint64, lsns []uint64, err error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpReplHello})
	if err != nil {
		return 0, 0, nil, err
	}
	if err := statusErr(r); err != nil {
		return 0, 0, nil, err
	}
	return r.ReplRole, r.ReplEpoch, r.ReplLSNs, nil
}

// Promote asks the server to take over as primary at an epoch strictly
// above minEpoch (the caller's last observed primary epoch), returning the
// epoch it now serves at. Idempotent: promoting an already-promoted
// primary whose epoch supersedes minEpoch returns that epoch unchanged.
func (c *Client) Promote(minEpoch uint64) (uint64, error) {
	r, err := c.doRetry(wire.Request{Op: wire.OpPromote, ReplEpoch: minEpoch})
	if err != nil {
		return 0, err
	}
	if err := statusErr(r); err != nil {
		return 0, err
	}
	return r.ReplEpoch, nil
}

// Close tears the connection down; concurrent and subsequent calls fail
// with ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return ErrClosed
	}
	c.connMu.Lock()
	gen := c.gen
	c.connMu.Unlock()
	c.teardown(gen, ErrClosed)
	return nil
}
