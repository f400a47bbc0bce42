// Package server is the network serving layer over kv.Store: a TCP server
// speaking the internal/wire length-prefixed binary protocol
// (GET/PUT/DEL/SCAN/STATS/PING) with per-connection request pipelining.
//
// Concurrency model. Each connection runs two goroutines, a reader and a
// writer, beside one group committer per store partition. The reader decodes
// frames and gives every request one of two routes. A write — PUT, DEL and
// the typed-object writes — goes to the committer of its key's (or object
// name's) partition (batch.go — the one route a write takes to the store),
// bounded by a per-connection inflight semaphore, so two writes to one key
// commit in the order they were sent, whatever their verbs. Everything else
// runs to completion right there: PING, GET and the typed reads because a
// read is cheap (a cache lookup, or a Find plus a value-log read) and a
// hand-off costs more than serving it, SCAN, STATS, REPL.* and PROMOTE because
// they are rare and only their own connection waits on them. What the reader
// answers goes into a reader-owned buffer that it hands to the connection's
// writer once per read batch: before it can block. Requests on one connection
// complete out of order, exactly what a pipelining client wants, and
// responses carry the request ID so the client can match them.
// Responders hand their frames to the connection's wire.Writer, whose
// goroutine coalesces everything queued behind the in-flight write, so a
// pipeline of responses shares one syscall. The paper's core claim is that
// slow NVM persists should never block unrelated work; the serving layer
// extends that to the socket: while one request sits in a persist stall, the
// other inflight requests of the same connection (and every other
// connection) keep moving.
//
// Backpressure is explicit and bounded everywhere: the per-connection
// semaphore stalls the reader (TCP pushes back on the client), as does a
// backlog of responses the client has not read yet (maxBacklog), a global
// inflight limit rejects excess requests with StatusOverloaded rather than
// queueing them, each committer's queue is bounded the same way, and
// connections beyond MaxConns are refused at accept. Idle connections are
// reaped by read deadlines.
//
// Graceful drain (SIGINT/SIGTERM in rnserved): stop accepting, stop
// reading new frames, finish every request already read — a response on
// the wire always reflects a durable mutation — flush writers, then the
// caller checkpoints the store (kv.Store.Checkpoint), so recovery after a
// drain takes the clean reconstruction path and loses nothing that was
// acknowledged.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rntree/internal/obj"
	"rntree/internal/repl"
	"rntree/internal/wire"
	"rntree/kv"
)

// Config tunes a Server. Zero and negative values take the documented
// defaults.
type Config struct {
	// MaxConns caps concurrent connections (default 256); accepts beyond
	// it are closed immediately.
	MaxConns int
	// MaxInflight caps pipelined requests in progress per connection
	// (default 64). A client pipelining deeper stalls in TCP, not in
	// server memory. In progress means queued on a committer: a request
	// served on the reader queues nowhere and completes before the next
	// frame is decoded, so it takes neither token.
	MaxInflight int
	// MaxGlobalInflight caps requests in progress (in the same sense)
	// across all connections (default 1024). Beyond it requests are
	// rejected with StatusOverloaded instead of queueing.
	MaxGlobalInflight int
	// IdleTimeout reaps connections with no inflight requests and no
	// traffic (default 2m).
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write (default 10s).
	WriteTimeout time.Duration
	// Batch tunes the per-partition group committers every write commits
	// through.
	Batch BatchConfig
	// Cache configures the opt-in DRAM hot-key cache fronting GETs; New
	// installs it in the store (kv.Store.SetCache).
	Cache CacheConfig
	// Repl attaches a replication node (repl.NewNode over the same store);
	// nil disables replication. On a replica-role node, PUT and DEL are
	// rejected with StatusReadOnly (GET/SCAN/STATS serve, possibly stale).
	Repl *repl.Node
	// ReplDurableTimeout bounds how long a durable-ack PUT waits for a
	// replica's ack before failing the request (default 5s). The write
	// stays committed locally either way.
	ReplDurableTimeout time.Duration
	// Obj attaches a typed-object layer (obj.Attach over the same store);
	// nil rejects the typed verbs with StatusErr. The caller owns its
	// lifecycle (Close); the server masks expired names on GET, feeds it
	// a replica's applied records and activates it on promotion.
	Obj *obj.Store
	// ReplFenceLease, when positive, arms the node's fence lease
	// (repl.Node.SetFenceLease): while it has lapsed, writes are rejected
	// with StatusReadOnly. 0 (default) disables fencing, so a single node
	// with replication enabled serves writes with no replica attached.
	ReplFenceLease time.Duration
}

func (c *Config) normalize() {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.MaxGlobalInflight <= 0 {
		c.MaxGlobalInflight = 1024
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.ReplDurableTimeout <= 0 {
		c.ReplDurableTimeout = 5 * time.Second
	}
	c.Batch.normalize()
}

// CacheConfig and CacheStats are the store's hot-key cache types (kv/cache.go).
type (
	CacheConfig = kv.CacheConfig
	CacheStats  = kv.CacheStats
)

// Server serves a kv.Store over TCP.
type Server struct {
	cfg Config
	st  *kv.Store
	// committers holds one group committer per store partition (batch.go),
	// started by Serve and stopped by Shutdown through commitStop/commitWG.
	committers []*committer
	commitStop chan struct{}
	commitWG   sync.WaitGroup
	// repl is the optional replication node (repl.go); nil when disabled.
	repl *repl.Node
	// obj is the optional typed-object layer; nil when disabled. Expiry
	// masking guards the flat GET path.
	obj *obj.Store
	// globalInflight counts requests in progress across all connections.
	// It is a try-acquire-only semaphore (nothing ever blocks on it — over
	// the limit is an immediate StatusOverloaded), so a plain atomic beats
	// a channel: two uncontended channel operations per request are
	// measurable at pipelined rates.
	globalInflight atomic.Int64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining bool
	served   sync.WaitGroup // accept loop + one per live connection

	accepted      atomic.Uint64
	refused       atomic.Uint64
	reaped        atomic.Uint64
	active        atomic.Int64
	requests      atomic.Uint64
	overloads     atomic.Uint64
	batches       atomic.Uint64 // group commits
	batchedPuts   atomic.Uint64 // mutations committed by them
	replWaits     atomic.Uint64 // durable-ack PUTs that waited for a replica
	replWaitFails atomic.Uint64 // ...that timed out waiting
	fenceRejects  atomic.Uint64 // writes rejected because the primary is fenced
}

// New builds a Server over st.
func New(st *kv.Store, cfg Config) *Server {
	cfg.normalize()
	s := &Server{
		cfg:        cfg,
		st:         st,
		conns:      map[*conn]struct{}{},
		commitStop: make(chan struct{}),
	}
	s.committers = s.newCommitters()
	if cfg.Cache.Enable {
		st.SetCache(cfg.Cache)
	}
	s.repl = cfg.Repl
	s.obj = cfg.Obj
	if s.repl != nil {
		// Durable PUTs are answered from the replica's watermark (batch.go).
		s.repl.SetDurableHook(func(part int, _ uint64) { s.committers[part].settleDurable(false) })
	}
	if s.repl != nil && cfg.ReplFenceLease > 0 {
		s.repl.SetFenceLease(cfg.ReplFenceLease)
	}
	if s.repl != nil && s.obj != nil {
		// A replica's DRAM expiry index tracks shipped expiry records.
		s.repl.SetApplyHook(s.obj.OnReplApply)
	}
	return s
}

// Serve accepts connections on ln until Shutdown (returns nil) or a fatal
// listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.served.Add(1)
	s.mu.Unlock()
	defer s.served.Done()
	for _, c := range s.committers {
		s.commitWG.Add(1)
		go c.run()
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		if !s.register(c) {
			s.refused.Add(1)
			c.Close()
			continue
		}
	}
}

// Addr returns the listening address (for tests using ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// register admits c unless the server is draining or full.
func (s *Server) register(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || len(s.conns) >= s.cfg.MaxConns {
		return false
	}
	cn := newConn(s, c)
	s.conns[cn] = struct{}{}
	s.accepted.Add(1)
	s.active.Add(1)
	s.served.Add(1)
	go cn.run()
	return true
}

// unregister removes a finished connection.
func (s *Server) unregister(cn *conn) {
	s.mu.Lock()
	delete(s.conns, cn)
	s.mu.Unlock()
	s.active.Add(-1)
	s.served.Done()
}

// Shutdown gracefully drains the server: stop accepting, stop reading new
// frames, finish and acknowledge every request already read, flush and
// close every connection, stop the committers. If ctx expires first the
// remaining connections are torn down hard and ctx.Err is returned. The
// store itself is left open — the caller owns the checkpoint.
//
// With replication attached the drain is two-phase: client connections
// drain first while replica connections keep shipping and acking (so
// inflight durable-ack PUTs can still complete), then every subscriber's
// ship queue is flushed to its replica's acked watermark — a drained
// primary has handed its replicas every committed record — and only then
// are the replica connections closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	ln := s.ln
	var clients, replicas []*conn
	for cn := range s.conns {
		if cn.sub.Load() != nil {
			replicas = append(replicas, cn)
			continue
		}
		clients = append(clients, cn)
		cn.beginDrain()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	// Phase 1: client connections finish (their final durable-ack waits
	// are fed by the still-open replica connections).
	var err error
	for _, cn := range clients {
		select {
		case <-cn.done:
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			break
		}
	}
	// Phase 2: flush each subscriber to its replica's ack watermark. A dead
	// or absent replica cannot be flushed — best effort, the replica will
	// resubscribe from its durable watermarks and heal from the backlog.
	if err == nil {
		for _, cn := range replicas {
			if sub := cn.sub.Load(); sub != nil {
				_ = sub.Flush(ctx)
			}
		}
	}
	// Phase 3: drain everything left (replica connections, stragglers).
	s.mu.Lock()
	for cn := range s.conns {
		cn.beginDrain()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.served.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for cn := range s.conns {
			cn.w.Kill()
		}
		s.mu.Unlock()
		<-done
	}
	// All connections are gone, so every committer's queue and durable FIFO
	// is empty and stays so.
	close(s.commitStop)
	s.commitWG.Wait()
	if s.repl != nil {
		s.repl.SetDurableHook(nil)
	}
	for _, c := range s.committers {
		c.durTimer.Stop()
	}
	return err
}

// Stats is a consistent snapshot of the serving counters. The Has* fields
// gate which of the optional counters are meaningful.
type Stats struct {
	ConnsActive   int64
	ConnsAccepted uint64
	ConnsRefused  uint64
	ConnsReaped   uint64
	Requests      uint64
	Overloads     uint64

	Batches     uint64 // group commits
	BatchedPuts uint64 // flat mutations (PUT and DEL) committed by them

	HasCache bool
	Cache    CacheStats

	HasRepl         bool
	Repl            repl.Stats
	DurableWaits    uint64 // durable-ack PUTs that waited for a replica
	DurableTimeouts uint64 // ...that timed out waiting

	HasObj bool
	Obj    obj.Stats
}

// statsSnapshotRetries bounds the Stats consistency loop; see Stats.
const statsSnapshotRetries = 8

// Stats snapshots the serving counters. The per-field atomics cannot be
// read at one instant, so two mechanisms keep the snapshot consistent.
// First, a bounded seqlock-style loop using the requests counter as the
// sequence word: if no request arrived while the fields were read, the
// snapshot is causally clean and is returned as-is. Under a saturating
// burst that never converges, the fallback is load ordering: every derived
// counter is incremented strictly AFTER the requests counter it depends on
// (dispatch bumps requests before any overload/batch/cache path runs), so
// loading the dependents BEFORE requests guarantees the invariants a
// monitor checks — overloads <= requests, batched_puts <= requests — in
// every interleaving, torn or not.
func (s *Server) Stats() Stats {
	var st Stats
	for try := 0; try < statsSnapshotRetries; try++ {
		before := s.requests.Load()
		st = s.loadStats()
		if st.Requests == before {
			break
		}
	}
	return st
}

// loadStats reads the counters with requests LAST (see Stats for why the
// order is load-bearing).
func (s *Server) loadStats() Stats {
	st := Stats{
		ConnsActive:   s.active.Load(),
		ConnsAccepted: s.accepted.Load(),
		ConnsRefused:  s.refused.Load(),
		ConnsReaped:   s.reaped.Load(),
		Overloads:     s.overloads.Load(),
		Batches:       s.batches.Load(),
		BatchedPuts:   s.batchedPuts.Load(),
	}
	st.Cache, st.HasCache = s.st.CacheStats()
	if s.obj != nil {
		st.HasObj = true
		st.Obj = s.obj.Stats()
	}
	if s.repl != nil {
		st.HasRepl = true
		st.Repl = s.repl.NodeStats()
		st.DurableWaits = s.replWaits.Load()
		st.DurableTimeouts = s.replWaitFails.Load()
	}
	st.Requests = s.requests.Load()
	return st
}

// counters snapshots the named server+store counters for STATS.
func (s *Server) counters() []wire.Counter {
	st := s.st.Stats()
	sv := s.Stats()
	ht := s.st.HTMStats()
	out := []wire.Counter{
		{Name: "live_keys", Val: uint64(st.LiveKeys)},
		{Name: "dead_records", Val: uint64(st.DeadRecords)},
		{Name: "partitions", Val: uint64(st.Partitions)},
		{Name: "persists", Val: st.Persists},
		{Name: "tree_leaves", Val: uint64(st.TreeLeaves)},
		{Name: "conns_active", Val: uint64(sv.ConnsActive)},
		{Name: "conns_accepted", Val: sv.ConnsAccepted},
		{Name: "conns_refused", Val: sv.ConnsRefused},
		{Name: "conns_reaped", Val: sv.ConnsReaped},
		{Name: "requests", Val: sv.Requests},
		{Name: "overloads", Val: sv.Overloads},
		{Name: "batches", Val: sv.Batches},
		{Name: "batched_puts", Val: sv.BatchedPuts},
		{Name: "htm_commits", Val: ht.Commits},
		{Name: "htm_conflict_aborts", Val: ht.ConflictAborts},
		{Name: "htm_capacity_aborts", Val: ht.CapacityAborts},
		{Name: "htm_explicit_aborts", Val: ht.ExplicitAborts},
		{Name: "htm_spurious_aborts", Val: ht.SpuriousAborts},
		{Name: "htm_fallbacks", Val: ht.Fallbacks},
		{Name: "tree_read_retries", Val: s.st.ReadRetries()},
	}
	if sv.HasRepl {
		pending, oldest := s.durableBacklog()
		out = append(out,
			wire.Counter{Name: "repl_role", Val: uint64(sv.Repl.Role)},
			wire.Counter{Name: "repl_epoch", Val: sv.Repl.Epoch},
			wire.Counter{Name: "repl_subscribers", Val: uint64(sv.Repl.Subscribers)},
			wire.Counter{Name: "repl_shipped", Val: sv.Repl.Shipped},
			wire.Counter{Name: "repl_acks", Val: sv.Repl.Acks},
			wire.Counter{Name: "repl_applied", Val: sv.Repl.Applied},
			wire.Counter{Name: "repl_durable_waits", Val: sv.DurableWaits},
			wire.Counter{Name: "repl_durable_timeouts", Val: sv.DurableTimeouts},
			wire.Counter{Name: "repl_durable_pending", Val: pending},
			wire.Counter{Name: "repl_durable_oldest_us", Val: uint64(oldest.Microseconds())},
			wire.Counter{Name: "repl_fenced", Val: b2u(s.repl.Fenced())},
			wire.Counter{Name: "repl_fence_rejects", Val: s.fenceRejects.Load()},
		)
	}
	if sv.HasCache {
		out = append(out,
			wire.Counter{Name: "cache_hits", Val: sv.Cache.Hits},
			wire.Counter{Name: "cache_misses", Val: sv.Cache.Misses},
			wire.Counter{Name: "cache_fills", Val: sv.Cache.Fills},
			wire.Counter{Name: "cache_fill_aborts", Val: sv.Cache.FillAborts},
			wire.Counter{Name: "cache_invalidations", Val: sv.Cache.Invalidations},
			wire.Counter{Name: "cache_evictions", Val: sv.Cache.Evictions},
			wire.Counter{Name: "cache_entries", Val: sv.Cache.Entries},
		)
	}
	if sv.HasObj {
		out = append(out,
			wire.Counter{Name: "obj_reaps", Val: sv.Obj.Reaps},
			wire.Counter{Name: "obj_lazy_expiries", Val: sv.Obj.LazyExpiries},
			wire.Counter{Name: "obj_intents_undone", Val: sv.Obj.IntentsUndone},
		)
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// conn is one client connection.
type conn struct {
	s   *Server
	c   net.Conn
	w   *wire.Writer  // the connection's coalescing writer; it closes c
	sem chan struct{} // per-connection inflight tokens

	drainF atomic.Bool // stop reading new frames

	// out collects the reader's own responses (PING, GET, rejections) until
	// flush hands them to the writer; only the reader touches it.
	out []byte
	// val is the reader's scratch for the value of a GET or HGET: the store
	// copies the value into it, and serve encodes it into out before the next
	// request reuses it.
	val []byte

	// Replication ship stream (repl.go): non-nil sub marks this as a
	// replica connection; shipSeq numbers the unsolicited record frames and
	// shipBuf is the one they are encoded in (both touched only by the
	// subscriber's Run goroutine).
	//rnvet:lockorder server.conn.subMu<repl.Node.mu
	subMu   sync.Mutex // serializes subscribe attempts (Subscribe acquires the repl node's lock inside)
	sub     atomic.Pointer[repl.Subscriber]
	shipSeq uint64
	shipBuf []byte

	done     chan struct{}  // closed when run finishes (drain phasing)
	inflight sync.WaitGroup // queued writes not yet responded
}

func newConn(s *Server, c net.Conn) *conn {
	return &conn{
		s:    s,
		c:    c,
		w:    wire.NewWriter(c, s.cfg.WriteTimeout, nil),
		sem:  make(chan struct{}, s.cfg.MaxInflight),
		done: make(chan struct{}),
	}
}

// beginDrain makes the reader stop at the next frame boundary: the flag
// flips first, then the read deadline is yanked so a reader blocked in
// ReadFrame wakes immediately, and one parked on the writer's backlog is
// woken.
func (cn *conn) beginDrain() {
	cn.drainF.Store(true)
	cn.c.SetReadDeadline(time.Now())
	cn.w.Wake()
}

// maxBacklog is how many response bytes a connection may hold unwritten
// before its reader stops decoding requests: a client that sends and does not
// read stalls in TCP, not in server memory. One maximal response always fits.
// Committers never wait: what they can add is bounded by the requests the
// reader has let in.
const maxBacklog = wire.MaxFrame

// respond encodes the responses back-to-back, sends them as one write burst
// (usually one syscall), then releases each request's tokens. It completes
// every queued write; a committer passes one connection's whole slice of a
// batch.
func (cn *conn) respond(rs ...wire.Response) {
	fp, _ := framePool.Get().(*[]byte)
	if fp == nil {
		fp = new([]byte)
	}
	frame := (*fp)[:0]
	for _, r := range rs {
		frame = appendResponse(frame, r)
	}
	cn.w.Send(frame)
	*fp = frame
	framePool.Put(fp)
	cn.s.globalInflight.Add(-int64(len(rs)))
	for range rs {
		<-cn.sem
		cn.inflight.Done()
	}
}

// appendResponse appends r's frame to dst. Response construction bugs must
// not wedge the pipeline; they drop to an encodable error instead.
func appendResponse(dst []byte, r wire.Response) []byte {
	next, err := wire.AppendResponse(dst, r)
	if err != nil {
		next, _ = wire.AppendResponse(dst, wire.Response{
			ID: r.ID, Status: wire.StatusErr, Op: r.Op, Msg: "server: unencodable response",
		})
	}
	return next
}

// framePool recycles response-frame buffers (as *[]byte, so a round trip
// through the pool allocates nothing): Send copies the frame into the
// writer's buffer before returning, so the buffer is dead by the time Send
// comes back.
var framePool sync.Pool

// payloadPool recycles request-payload buffers, as *[]byte like framePool. A
// decoded request's key/value slices alias its frame payload, so the buffer
// lives exactly as long as the request does, and every route returns it once
// the request is answered: the reader at once, a committer once the write has
// copied key and value into the log (nothing keeps a request slice: the
// object layer copies names, fields and values into the log and into string
// map keys). At a couple of
// KiB per PUT this is the server's dominant allocation, and recycling it
// keeps the GC out of the steady-state serving loop.
var payloadPool sync.Pool

// putPayload returns a dead payload to payloadPool, in the box it was taken
// out with (or a fresh one if the pool was empty then).
func putPayload(box *[]byte, payload []byte) {
	if box == nil {
		box = new([]byte)
	}
	*box = payload[:0]
	payloadPool.Put(box)
}

// run owns the connection lifecycle: pump the reader, wait for the queued
// writes, let the writer flush their final acks, then close.
func (cn *conn) run() {
	defer cn.s.unregister(cn)
	defer close(cn.done)
	cn.readLoop()

	// No new requests past this point. Wait for the committers to answer
	// this connection's queued writes, stop the ship stream if this was a
	// replica connection (its queued record frames still drain through the
	// writer below), then close the writer: it writes every queued frame,
	// which is what makes a sent response a flushed-to-socket ack even
	// through a graceful drain, and then closes the socket.
	cn.inflight.Wait()
	if sub := cn.sub.Load(); sub != nil {
		sub.Stop()
		<-sub.Done()
	}
	cn.w.Close()
}

// readBatchBytes is the reader's buffer size, and the most responses it
// collects before flushing even though more requests are buffered.
const readBatchBytes = 64 << 10

// readLoop decodes frames and routes requests until error, idle timeout,
// drain or a dead connection. What it answered itself goes to the writer
// before it can block and when it returns: a request that was read is answered.
func (cn *conn) readLoop() {
	defer cn.flush()
	br := bufio.NewReaderSize(cn.c, readBatchBytes)
	var armed time.Time
	for {
		if len(cn.out) >= readBatchBytes || !wire.FrameBuffered(br) {
			cn.flush()
		}
		if !cn.w.AwaitBacklog(maxBacklog, &cn.drainF) || cn.drainF.Load() {
			return
		}
		// Re-arm the idle deadline at most every IdleTimeout/4: a
		// timer-heap update per frame is measurable at pipelined rates and
		// reaping needs no precision. The drainF re-check AFTER the Set
		// closes the drain race: if beginDrain's deadline poke landed
		// between the loop-top check and our Set, our Set overwrote it —
		// but then the flag store (which precedes the poke) is visible
		// here, so we return instead of blocking. If the poke lands after
		// this re-check, it overwrites our deadline and wakes the read.
		if now := time.Now(); now.Sub(armed) > cn.s.cfg.IdleTimeout/4 {
			cn.c.SetReadDeadline(now.Add(cn.s.cfg.IdleTimeout))
			armed = now
			if cn.drainF.Load() {
				return
			}
		}
		// Each frame gets its own payload buffer (pooled once a request has
		// retired one) so the decoded request's key/value slices can alias
		// it for the request's whole lifetime — the committer route is
		// asynchronous, and handing the payload over outright is
		// one 2-KiB memmove cheaper per PUT than reusing the buffer and
		// cloning the slices out of it.
		var pbuf []byte
		box, _ := payloadPool.Get().(*[]byte)
		if box != nil {
			pbuf = *box
		}
		payload, err := wire.ReadFrame(br, pbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !cn.drainF.Load() {
				cn.s.reaped.Add(1)
			}
			// Framing/protocol garbage, timeout, EOF: the stream is not
			// trustworthy beyond this point; stop reading. Inflight
			// requests still complete and flush.
			return
		}
		cn.route(payload, box)
	}
}

// flush hands the reader's collected responses to the writer.
func (cn *conn) flush() {
	if len(cn.out) > 0 {
		cn.w.Send(cn.out)
		cn.out = cn.out[:0]
	}
}

// route decodes one frame and sends the request on its way: a write is queued
// on its committer (submit), an ack is folded here, and everything else is
// served here on the reader (serve). box is the pool box payload came out of,
// if any; whichever route finishes the request returns both to payloadPool.
func (cn *conn) route(payload []byte, box *[]byte) {
	req, err := wire.DecodeRequest(payload)
	switch {
	case err != nil:
		// Malformed request: the frame boundary was still sound, so report
		// and keep the connection. It never counted as a request.
		cn.out = appendResponse(cn.out, wire.Response{
			ID: reqIDBestEffort(payload), Status: wire.StatusErr, Op: wire.OpPing, Msg: err.Error(),
		})
	case req.Op == wire.OpReplAck:
		// Acks carry no response and take no inflight tokens: they are
		// folded here on the reader, so an ack can never queue behind the
		// very durable-ack PUT it unblocks.
		if sub := cn.sub.Load(); sub != nil {
			sub.Ack(req.ReplLSNs)
		}
	case writeOp(req.Op):
		if cn.submit(req, payload, box) {
			return // the committer returns the payload
		}
	default:
		// requests first: Stats relies on every derived counter (the cache's
		// hits and misses here) being bumped after it.
		cn.s.requests.Add(1)
		cn.serve(req)
	}
	putPayload(box, payload)
}

// serve runs one request to completion on the reader and appends its response
// to cn.out. Reads are cheap; what is slow (a SCAN, PROMOTE's sweep) is rare
// and holds up only this connection.
func (cn *conn) serve(req wire.Request) {
	s := cn.s
	resp := wire.Response{ID: req.ID, Op: req.Op, Status: wire.StatusOK}
	switch req.Op {
	case wire.OpPing:
	case wire.OpGet:
		cn.val, resp.Status, resp.Msg = s.get(cn.val[:0], req.Key)
		resp.Val = cn.val
	case wire.OpHGet, wire.OpSMembers, wire.OpTTL:
		cn.val = s.readObj(req, &resp, cn.val[:0])
	case wire.OpScan:
		resp.Pairs = cn.scan(req)
	case wire.OpStats:
		resp.Counters = s.counters()
	case wire.OpReplHello:
		cn.handleReplHello(req, &resp)
	case wire.OpReplSubscribe:
		if sub := cn.handleReplSubscribe(req, &resp); sub != nil {
			// The OK frame goes to the writer before the ship loop starts,
			// so it precedes every shipped record on the wire.
			cn.out = appendResponse(cn.out, resp)
			cn.flush()
			go sub.Run()
			return
		}
	case wire.OpPromote:
		cn.handlePromote(req, &resp)
		if resp.Status == wire.StatusOK && s.obj != nil {
			// A freshly promoted primary sweeps the records a composite cut
			// short by the failover left unlisted. The role has already
			// flipped, so writes on other connections overlap the sweep —
			// it locks per name; readers never saw those records anyway.
			if err := s.obj.Activate(); err != nil {
				resp.Status, resp.Msg = wire.StatusErr, err.Error()
			}
		}
	default:
		resp.Status, resp.Msg = wire.StatusErr, fmt.Sprintf("unhandled op %s", wire.OpName(req.Op))
	}
	cn.out = appendResponse(cn.out, resp)
	if cap(cn.val) > maxValScratch {
		cn.val = nil // one huge value does not pin its buffer to the connection
	}
}

// maxValScratch is the largest value buffer a connection keeps between reads.
const maxValScratch = 64 << 10

// get is the one flat read: object-layer gates, then the store (through its
// hot-key cache, if installed), which appends the value to dst — the
// reader's scratch, so a GET allocates nothing here.
func (s *Server) get(dst, key []byte) (val []byte, status uint8, msg string) {
	if o := s.obj; o != nil {
		if obj.IsInternalKey(key) {
			return dst, wire.StatusErr, errReservedKey
		}
		// An expired name is masked until its reap publishes.
		if o.Expired(key) {
			return dst, wire.StatusNotFound, ""
		}
	}
	val, err := s.st.AppendGet(dst, key)
	status, msg = statusOf(err)
	return val, status, msg
}

// reqIDBestEffort pulls the request ID out of a payload long enough to
// carry one, so even malformed-request errors can be matched by a client.
func reqIDBestEffort(p []byte) uint64 {
	if len(p) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

const (
	errReservedKey = "server: key is in the reserved object namespace"
	errObjDisabled = "server: typed objects disabled"
)

// writeOp reports whether op mutates the store, and so commits through a
// partition committer instead of running on the reader.
func writeOp(op uint8) bool {
	switch op {
	case wire.OpPut, wire.OpDel, wire.OpHSet, wire.OpHDel, wire.OpSAdd, wire.OpSRem, wire.OpExpire, wire.OpPersist:
		return true
	}
	return false
}

// submit gates one write, here on the reader and nowhere else, and queues it
// on the committer of its key's partition — for a typed verb the key is the
// object's name, which routes like a flat key of that name. A typed verb needs
// the object layer, a replica or fenced primary rejects every write, and a
// flat one may not touch the object layer's reserved keys. Then come the
// tokens: the per-connection one blocking (the pipelining depth limit), the
// global one rejecting (overload protection), and a full queue is the same
// backpressure, never buffering. A rejection is answered on the reader, and
// submit reports whether the write was queued. Nothing here may capture req:
// a closure over it would move every write to the heap.
func (cn *conn) submit(req wire.Request, payload []byte, box *[]byte) bool {
	s := cn.s
	s.requests.Add(1)
	flat := flatOp(req.Op)
	status, msg := uint8(wire.StatusOverloaded), "" // unless a gate says otherwise
	switch {
	case !flat && s.obj == nil:
		status, msg = wire.StatusErr, errObjDisabled
	case s.readOnly():
		status = wire.StatusReadOnly
	case flat && s.obj != nil && obj.IsInternalKey(req.Key):
		status, msg = wire.StatusErr, errReservedKey
	default:
		select {
		case cn.sem <- struct{}{}:
		default:
			cn.flush() // about to block: let what is answered leave first
			cn.sem <- struct{}{}
		}
		if s.globalInflight.Add(1) <= int64(s.cfg.MaxGlobalInflight) {
			m := mutation{
				cn: cn, id: req.ID, op: req.Op, key: req.Key, val: req.Val, field: req.Field, ttl: req.TTLMs,
				raw: payload, box: box,
				// Without a replication node a durable PUT is a PUT.
				durable: req.Durable && s.repl != nil,
			}
			cn.inflight.Add(1)
			select {
			case s.committers[s.st.PartitionOf(req.Key)].q <- m:
				return true
			default:
				cn.inflight.Done()
			}
		}
		s.globalInflight.Add(-1)
		<-cn.sem
		s.overloads.Add(1)
	}
	cn.out = appendResponse(cn.out, wire.Response{ID: req.ID, Op: req.Op, Status: status, Msg: msg})
	return false
}

// readObj serves a typed read. Like a flat GET it takes no lock a writer
// holds: an expiry lookup in DRAM, then kv reads. An HGET's value is appended
// to dst, the reader's scratch, which readObj returns.
func (s *Server) readObj(req wire.Request, resp *wire.Response, dst []byte) []byte {
	o := s.obj
	if o == nil {
		resp.Status, resp.Msg = wire.StatusErr, errObjDisabled
		return dst
	}
	var err error
	switch req.Op {
	case wire.OpHGet:
		dst, err = o.AppendHGet(dst, req.Key, req.Field)
		resp.Val = dst
	case wire.OpSMembers:
		resp.Members, err = o.SMembers(req.Key)
	case wire.OpTTL:
		resp.TTL, err = o.TTL(req.Key)
	}
	resp.Status, resp.Msg = statusOf(err)
	return dst
}

// scan collects up to ScanMax live pairs with the given key prefix. The
// store's iteration order is hash order — unordered with respect to keys,
// like a Redis SCAN.
func (cn *conn) scan(req wire.Request) []wire.KV {
	max := int(req.ScanMax)
	if max <= 0 || max > 10_000 {
		max = 10_000
	}
	var out []wire.KV
	cn.s.st.Range(func(k, v []byte) bool {
		// Object-layer records are an implementation detail of the typed
		// verbs; a flat SCAN never surfaces them.
		if cn.s.obj != nil && (obj.IsInternalKey(k) || cn.s.obj.Expired(k)) {
			return true
		}
		if !bytes.HasPrefix(k, req.ScanPrefix) {
			return true
		}
		out = append(out, wire.KV{Key: cloneBytes(k), Val: cloneBytes(v)})
		return len(out) < max
	})
	return out
}
