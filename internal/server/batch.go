package server

import (
	"sync"
	"time"

	"rntree/internal/repl"
	"rntree/internal/wire"
	"rntree/kv"
)

// Group commit: the one route every write takes from its decoded frame to its
// ack. The connection's reader gates it and queues it on its key's partition
// committer — one bounded queue and one goroutine per store partition — and
// the committer takes whatever has queued (up to MaxBatch), commits the flat
// mutations (PUT, durable PUT, DEL) with one kv.Store.Commit, which persists
// the batch's records with one fence per contiguous run (and invalidates the
// store's hot-key cache for every key it publishes), and acknowledges. A
// typed-object write (HSET, HDEL, SADD, SREM, EXPIRE, PERSIST) ends the batch
// gathered before it: the flat run commits first, then the object call runs,
// and the lot is acknowledged together. Nothing is acknowledged before its
// write returns, so the durability contract is that of an individual Put, and
// no ack leaves while a superseded value is cached; and nothing waits
// for company: an idle committer commits a batch of one, and under load the
// queue that builds behind the previous batch's persist becomes the next
// batch.
//
// Sharding the committer by partition does two things. It preserves per-key
// ordering across verbs — a key, and an object's name, always hashes to the
// same partition, so a PUT, a DEL and an EXPIRE of one key pipelined on one
// connection pass through the same queue and commit in arrival order — and
// it lets one partition's persist
// stall overlap every other partition's CPU work (encoding acks, reading the
// next requests), instead of a single committer alternating between draining
// the NVM write queue and doing CPU work while the drain engines sit idle.

// BatchConfig tunes the partition committers.
type BatchConfig struct {
	// Puts is ignored: every flat mutation commits through its partition's
	// committer. The field is still declared only because benchmark/ sets
	// it, and a change may not edit benchmark/ alongside other code; the
	// benchmark-only PR that stops setting it deletes it together with
	// MaxDelay, kv.Options.Shards, pmem.Config.VolatileAlloc and
	// kv.CacheStats.AdmitRejects — five dead fields wait for that one PR
	// (ROADMAP item 1).
	Puts bool
	// MaxBatch is the most mutations coalesced into one commit (default 64).
	MaxBatch int
	// MaxDelay is ignored, like Puts and with the same removal plan: a
	// committer never waits for company.
	MaxDelay time.Duration
	// QueueCap bounds each partition committer's intake queue (default
	// 4×MaxBatch); when full, mutations are rejected with StatusOverloaded
	// rather than buffered.
	QueueCap int
}

func (c *BatchConfig) normalize() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
}

// mutation is one queued write with its completion route. key is the flat key
// or the object's name; field (a hash field or set member) and ttl (EXPIRE's
// milliseconds) are the typed verbs' other arguments. raw is the frame
// payload the slices alias, box the pool box it came out of (if any); the
// committer returns them to payloadPool once the write has copied what it
// keeps into the log.
type mutation struct {
	cn       *conn
	id       uint64
	op       uint8
	durable  bool // hold the ack until a replica's watermark covers the record
	key, val []byte
	field    []byte
	ttl      uint64
	raw      []byte
	box      *[]byte
}

// flatOp reports whether op is a flat mutation, which the committer batches
// into one kv.Store.Commit; the other writes are object calls.
func flatOp(op uint8) bool { return op == wire.OpPut || op == wire.OpDel }

// committer is one partition's commit loop. batch, muts and resps are
// scratch owned by the loop's goroutine and reused across batches, so a
// commit allocates nothing of its own.
//
// durQ[durHead:] is the partition's durable FIFO: committed durable PUTs
// waiting for a replica's watermark, in commit order, which is LSN order and
// deadline order. durTimer is pending (durArmed) whenever it is non-empty.
type committer struct {
	s     *Server
	part  int
	q     chan mutation
	batch []mutation
	muts  []kv.Mutation
	resps []wire.Response

	//rnvet:lockorder server.conn.subMu<server.committer.durMu<wire.Writer.mu
	durMu    sync.Mutex
	durQ     []durableAck
	durHead  int
	durTimer *time.Timer
	durArmed bool
}

func (s *Server) newCommitters() []*committer {
	cs := make([]*committer, s.st.Partitions())
	for i := range cs {
		c := &committer{s: s, part: i, q: make(chan mutation, s.cfg.Batch.QueueCap)}
		c.durTimer = time.AfterFunc(time.Hour, func() { c.settleDurable(true) })
		c.durTimer.Stop()
		cs[i] = c
	}
	return cs
}

// run commits batches until the server stops. While this committer sits in
// its batch's persist stall, the other partitions' committers (and the
// readers and responders) own the CPU — the drain engines of all partitions
// stay busy concurrently.
func (c *committer) run() {
	defer c.s.commitWG.Done()
	for {
		select {
		case first := <-c.q:
			c.commit(first)
		case <-c.s.commitStop:
			// Every connection is gone (Shutdown waits for them first), so
			// nothing is queued and nothing more will be.
			return
		}
	}
}

// commit takes first and whatever has queued behind it (never waiting), up
// to and including the first typed write; commits the flat run, then runs
// the typed write; and completes each request: recycle the payloads, ack. An
// entry that asked for a replica-durable ack goes onto the partition's
// durable FIFO instead of being acked here, so it holds up neither its
// batch-mates nor the next batch.
func (c *committer) commit(first mutation) {
	s := c.s
	batch := append(c.batch[:0], first)
gather:
	for len(batch) < s.cfg.Batch.MaxBatch && flatOp(batch[len(batch)-1].op) {
		select {
		case m := <-c.q:
			batch = append(batch, m)
		default:
			break gather
		}
	}
	n := len(batch)
	if !flatOp(batch[n-1].op) {
		n--
	}
	muts := c.muts[:0]
	for i := range batch[:n] {
		muts = append(muts, kv.Mutation{Key: batch[i].key, Val: batch[i].val, Delete: batch[i].op == wire.OpDel})
	}
	if n > 0 {
		s.st.Commit(muts)
		s.batches.Add(1)
		s.batchedPuts.Add(uint64(n))
	}
	if n < len(batch) {
		// The typed write's entry only carries its result, so muts mirrors batch.
		muts = append(muts, kv.Mutation{Err: s.apply(&batch[n])})
	}

	held := false
	for i := range batch {
		m := &batch[i]
		putPayload(m.box, m.raw)
		held = held || m.durable && muts[i].Err == nil
	}
	if held {
		c.holdDurable(batch, muts)
	}
	// Acks are grouped by connection, so a batch's worth of acknowledgements
	// to the same client leaves in one buffered write.
	for i := range batch {
		cn := batch[i].cn
		if cn == nil {
			continue
		}
		resps := c.resps[:0]
		for j := i; j < len(batch); j++ {
			if batch[j].cn != cn {
				continue
			}
			batch[j].cn = nil
			resp := wire.Response{ID: batch[j].id, Op: batch[j].op}
			resp.Status, resp.Msg = statusOf(muts[j].Err)
			resps = append(resps, resp)
		}
		cn.respond(resps...)
		c.resps = resps
	}
	c.batch, c.muts = batch, muts
}

// apply runs one typed-object write: one kv step on the name's partition,
// the partition this committer serves.
func (s *Server) apply(m *mutation) error {
	o := s.obj
	switch m.op {
	case wire.OpHSet:
		return o.HSet(m.key, m.field, m.val)
	case wire.OpHDel:
		return o.HDel(m.key, m.field)
	case wire.OpSAdd:
		return o.SAdd(m.key, m.field)
	case wire.OpSRem:
		return o.SRem(m.key, m.field)
	case wire.OpExpire:
		return o.Expire(m.key, m.ttl)
	}
	return o.Persist(m.key)
}

// durableAck is one committed durable PUT whose ack awaits the replica.
type durableAck struct {
	cn       *conn
	id       uint64
	lsn      uint64
	deadline time.Time
}

// holdDurable moves the batch's committed durable PUTs onto the durable FIFO,
// clearing their cn so commit's ack loop skips them, then settles it: an ack
// that landed before the enqueue is seen by that read of the watermark, and
// one that lands after it finds the entries queued.
func (c *committer) holdDurable(batch []mutation, muts []kv.Mutation) {
	deadline := time.Now().Add(c.s.cfg.ReplDurableTimeout)
	c.durMu.Lock()
	if c.durHead > 0 && len(c.durQ) == cap(c.durQ) { // slide down rather than grow
		c.durQ, c.durHead = c.durQ[:copy(c.durQ, c.durQ[c.durHead:])], 0
	}
	for i := range batch {
		if m := &batch[i]; m.durable && muts[i].Err == nil {
			c.durQ = append(c.durQ, durableAck{cn: m.cn, id: m.id, lsn: muts[i].LSN, deadline: deadline})
			c.s.replWaits.Add(1)
			m.cn = nil
		}
	}
	c.durMu.Unlock()
	c.settleDurable(false)
}

// settleDurable answers the durable FIFO's head entries that the replica's
// watermark covers (OK) or whose deadline has passed: a timed-out write IS
// committed locally, and the error tells the client replication lag, not
// data loss, exactly like an acks=all produce timeout. It then arms durTimer
// for the new head's deadline, unless the timer is pending already: it then
// fires no later, since deadlines only grow along the FIFO. The committer
// after an enqueue, the node's watermark hook and durTimer (fired) call it.
func (c *committer) settleDurable(fired bool) {
	c.durMu.Lock()
	defer c.durMu.Unlock()
	c.durArmed = c.durArmed && !fired
	w, now := c.s.repl.DurableLSN(c.part), time.Now()
	for ; c.durHead < len(c.durQ); c.durHead++ {
		a := &c.durQ[c.durHead]
		resp := wire.Response{ID: a.id, Op: wire.OpPut, Status: wire.StatusOK}
		if a.lsn > w {
			if d := a.deadline.Sub(now); d > 0 {
				if !c.durArmed {
					c.durArmed = true
					c.durTimer.Reset(d)
				}
				return
			}
			c.s.replWaitFails.Add(1)
			resp.Status, resp.Msg = wire.StatusErr, repl.ErrDurableTimeout.Error()
		}
		a.cn.respond(resp)
		a.cn = nil
	}
	c.durQ, c.durHead = c.durQ[:0], 0
}

// durableBacklog reports the durable PUTs waiting for a replica across all
// partitions, and how long the oldest has waited: the replica's lag as a
// durable write's client feels it. Only STATS calls it.
func (s *Server) durableBacklog() (pending uint64, oldest time.Duration) {
	now := time.Now()
	for _, c := range s.committers {
		c.durMu.Lock()
		if n := len(c.durQ) - c.durHead; n > 0 {
			pending += uint64(n)
			oldest = max(oldest, s.cfg.ReplDurableTimeout-c.durQ[c.durHead].deadline.Sub(now))
		}
		c.durMu.Unlock()
	}
	return pending, oldest
}

// statusOf maps a store or object-layer error to the wire status (and, for
// the catch-all, message) that reports it.
func statusOf(err error) (uint8, string) {
	switch err {
	case nil:
		return wire.StatusOK, ""
	case kv.ErrNotFound:
		return wire.StatusNotFound, ""
	case kv.ErrClosed:
		return wire.StatusClosing, ""
	}
	return wire.StatusErr, err.Error()
}
