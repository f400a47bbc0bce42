// Package repl implements primary/replica replication for the kv store.
//
// The value log doubles as the replication log: every committed record
// carries a per-partition LSN (kv/repl.go), so replication is "ship the log
// records a subscriber hasn't seen yet, in LSN order, per partition". A Node
// wraps one kv.Store with a replication role:
//
//   - A primary installs the store's commit hook and fans each committed
//     record out to its Subscribers. A subscriber that falls behind (queue
//     overflow, fresh connect, reconnect) is healed by replaying the
//     reachable backlog above its cursor — the log IS the retransmit buffer,
//     so there is no separate ship buffer to overflow or persist.
//   - A replica runs an applier loop (applier.go) against the primary's
//     network address: it applies shipped records with kv.Store.ReplApply
//     (idempotent by LSN watermark) and acks its durable per-partition
//     watermarks back.
//
// Durability handshake: a record acked by a replica has been applied AND
// persisted there (ReplApply returns after the record and its index publish
// are durable), so once Node.DurableLSN(part) reaches a record's LSN the
// write survives the loss of either node. The node tells one installed hook
// (SetDurableHook) each time a partition's watermark rises; the serving layer
// answers its wait-for-replica-durable PUTs from it.
//
// Epochs order primaries across failovers. The pair (epoch, role) is
// persisted in the store (kv.Store.SetReplState) as one atomically-written
// word: a promotion commits the bumped epoch *before* the node starts
// accepting writes, so a deposed primary can always be told apart by its
// lower epoch, and a crash mid-promotion recovers as either the old replica
// or the new primary — never a hybrid. See DESIGN.md §13.
package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rntree/internal/wire"
	"rntree/kv"
)

// Roles, shared with the wire protocol's handshake encoding.
const (
	Primary = wire.RolePrimary
	Replica = wire.RoleReplica
)

// ErrDurableTimeout reports a wait-for-replica-durable write that no replica
// acked in time (no replica connected, or the connected one is too far
// behind). The write itself is committed locally either way.
var ErrDurableTimeout = errors.New("repl: timed out waiting for replica durability")

// subQueueCap bounds each subscriber's live ship queue. Overflow is not an
// error: the subscriber is flagged lagging and heals from the log backlog.
const subQueueCap = 1024

// Record is one replicated log record. Key and Val are only valid until the
// Subscribe transport that receives them returns.
type Record struct {
	Part int
	LSN  uint64
	Kind uint8 // kv.ReplPut or kv.ReplDelete
	Key  []byte
	Val  []byte
}

// Node is one replication participant wrapped around a kv.Store.
type Node struct {
	st *kv.Store

	role  atomic.Uint32 // Primary / Replica; reads are lock-free (hot path)
	epoch atomic.Uint64

	mu          sync.Mutex // role/epoch transitions, subscriber registration
	applierStop func()
	closed      bool

	// subs is the registered subscribers: an immutable slice, replaced under
	// mu by Subscribe and close, so the commit hook ranges it without a lock
	// and the partitions' commits never serialise on the node.
	subs atomic.Pointer[[]*Subscriber]
	// durable is the per-partition max LSN acked durable by any replica. It
	// only rises (CAS-max), and durableHook hears of every rise.
	durable     []atomic.Uint64
	durableHook atomic.Pointer[func(part int, lsn uint64)]

	shipped atomic.Uint64 // records offered to subscribers (commit hook calls)
	acks    atomic.Uint64 // ack vectors processed
	applied atomic.Uint64 // records applied by this node's applier (replica)

	// Fencing (SetFenceLease): a primary whose subscribers have all been
	// gone longer than the lease reports Fenced, so the serving layer can
	// stop acking writes that would not survive a concurrent failover.
	fenceLease atomic.Int64 // lease in nanoseconds; 0 disables fencing
	subGone    atomic.Int64 // now() when the last subscriber left

	// applyHook, when set, is called with each record the applier has just
	// applied. The serving layer feeds it to the object layer's DRAM expiry
	// index; kv.Store.ReplApply has already invalidated the store's hot-key
	// cache, as every commit does.
	applyHook atomic.Pointer[func(kind uint8, key, val []byte)]
}

// NewNode wraps st as a replication participant. role is the requested role
// for a store that has never replicated; a persisted role (a promoted
// replica, a restarted primary) always wins, so a node cannot silently
// demote itself and drop acked writes — re-seeding a deposed primary as a
// replica requires a fresh store. The store's commit hook is installed
// regardless of role: it ships local commits to subscribers (a promoted
// replica's own replicas chain naturally) and switches compaction to keep
// newest tombstones, preserving the log as a complete replication history.
func NewNode(st *kv.Store, role uint8) (*Node, error) {
	if role != Primary && role != Replica {
		return nil, fmt.Errorf("repl: bad role %d", role)
	}
	n := &Node{
		st:      st,
		durable: make([]atomic.Uint64, st.Partitions()),
	}
	n.subs.Store(new([]*Subscriber))
	if e, r := st.ReplState(); r != 0 {
		// Persisted state wins.
		n.epoch.Store(e)
		role = r
	} else if role == Primary {
		// A fresh primary starts at epoch 1 (0 is "never replicated").
		if err := st.SetReplState(1, Primary); err != nil {
			return nil, err
		}
		n.epoch.Store(1)
	} else {
		// Persist the replica role so a restart comes back read-only
		// instead of silently accepting unreplicated writes.
		if err := st.SetReplState(0, Replica); err != nil {
			return nil, err
		}
	}
	n.role.Store(uint32(role))
	n.subGone.Store(n.now())
	st.SetCommitHook(n.onCommit)
	return n, nil
}

// SetFenceLease arms write fencing: once every subscriber has been gone for
// longer than d, Fenced reports true until one resubscribes. Arming (and
// re-arming) grants a fresh grace window of d, so a primary that boots
// before its replica is not fenced on its first write. d <= 0 disables
// fencing — the default, preserving a single node that runs with
// replication enabled but no replica attached.
//
// Fencing closes client-driven failover's divergence window (DESIGN.md
// §13.4): without it, a primary cut off from its replica — but not from
// its own clients — keeps acking async writes while those clients' peers
// promote the replica, and every write acked after the promotion's epoch
// bump is silently stranded on the deposed node.
func (n *Node) SetFenceLease(d time.Duration) {
	n.fenceLease.Store(int64(d))
	n.subGone.Store(n.now())
}

// Fenced reports whether this node is a primary whose fence lease has
// lapsed on the store's clock (SetFenceLease); the serving layer rejects
// writes while it holds. Lock-free; called per mutation.
func (n *Node) Fenced() bool {
	lease := n.fenceLease.Load()
	if lease <= 0 || n.Role() != Primary || len(*n.subs.Load()) > 0 {
		return false
	}
	return n.now()-n.subGone.Load() > lease
}

// Store returns the wrapped store.
func (n *Node) Store() *kv.Store { return n.st }

// now reads the fence lease's clock, the store's, in nanoseconds.
func (n *Node) now() int64 { return n.st.Clock().Now().UnixNano() }

// SetApplyHook registers fn to be called with each record the applier
// applies (nil unregisters): the server passes obj.Store.OnReplApply, which
// keeps a replica's expiry index live. kind is the kv record kind
// (kv.ReplPut / kv.ReplDelete); key and val alias the shipped frame and must
// be copied if retained. See applyHook.
func (n *Node) SetApplyHook(fn func(kind uint8, key, val []byte)) {
	if fn == nil {
		n.applyHook.Store(nil)
		return
	}
	n.applyHook.Store(&fn)
}

// SetDurableHook registers fn to be called each time a replica ack raises
// partition part's durable watermark, with the new watermark lsn (nil
// unregisters). It runs on the ack's goroutine with no lock of the node's
// held, possibly concurrently for different acks; a raced call may carry a
// lower lsn than one already seen.
func (n *Node) SetDurableHook(fn func(part int, lsn uint64)) {
	if fn == nil {
		n.durableHook.Store(nil)
		return
	}
	n.durableHook.Store(&fn)
}

// Role returns the node's current role (lock-free).
func (n *Node) Role() uint8 { return uint8(n.role.Load()) }

// Epoch returns the node's current epoch (lock-free).
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// onCommit is the store's commit hook: fan the record out to every
// subscriber. It runs under the partition's commit locks, so per partition
// the LSN stream each subscriber observes is monotonic. A subscriber
// registered after the load below sees the record through its initial
// backlog replay instead.
func (n *Node) onCommit(part int, lsn uint64, kind uint8, key, val []byte) {
	n.shipped.Add(1)
	for _, sub := range *n.subs.Load() {
		sub.offer(part, lsn, kind, key, val)
	}
}

// Subscribe registers a subscriber whose per-partition cursors start at
// from (the subscriber's durable watermarks) and whose records are
// delivered through send. send runs on the subscriber's Run goroutine and
// may block (it is the transport's backpressure); a send error ends Run.
// send must not retain the Record's Key or Val: their memory is reused once
// it returns. The caller must call Run to start shipping and Stop to end it.
func (n *Node) Subscribe(from []uint64, send func(Record) error) (*Subscriber, error) {
	if len(from) != n.st.Partitions() {
		return nil, fmt.Errorf("repl: subscribe with %d cursors, store has %d partitions",
			len(from), n.st.Partitions())
	}
	sub := &Subscriber{
		n:      n,
		send:   send,
		q:      make(chan queued, subQueueCap),
		stopc:  make(chan struct{}),
		donec:  make(chan struct{}),
		cursor: make([]atomic.Uint64, len(from)),
		ackv:   make([]atomic.Uint64, len(from)),
	}
	for i, l := range from {
		sub.cursor[i].Store(l)
		sub.ackv[i].Store(l)
	}
	// Force an initial backlog pass: everything between the cursors and the
	// store's current LSNs predates this registration.
	sub.lagging.Store(true)
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, errors.New("repl: node closed")
	}
	old := *n.subs.Load()
	subs := append(old[:len(old):len(old)], sub) // a copy: readers hold the old slice
	n.subs.Store(&subs)
	n.mu.Unlock()
	// The subscriber's acked watermarks count toward durability: a replica
	// resuming from LSN L has everything <= L durable already.
	n.advanceDurable(from)
	return sub, nil
}

// advanceDurable folds an ack vector into the node's durable watermarks and
// calls the durable hook for each partition whose watermark it raised. It
// takes no lock: each watermark is a CAS-max.
func (n *Node) advanceDurable(lsns []uint64) {
	hook := n.durableHook.Load()
	for i := 0; i < len(lsns) && i < len(n.durable); i++ {
		for cur := n.durable[i].Load(); lsns[i] > cur; cur = n.durable[i].Load() {
			if n.durable[i].CompareAndSwap(cur, lsns[i]) {
				if hook != nil {
					(*hook)(i, lsns[i])
				}
				break
			}
		}
	}
}

// DurableLSN returns partition part's durable (replica-acked) watermark.
// Lock-free.
func (n *Node) DurableLSN(part int) uint64 { return n.durable[part].Load() }

// Promote makes this node the primary at an epoch strictly above both its
// own and minEpoch (the caller's last known primary epoch), persisting the
// new (epoch, role) word BEFORE the role flip takes effect — a crash during
// promotion recovers as either the old replica or the new primary. Calling
// Promote on a primary whose epoch already supersedes minEpoch is a no-op
// (idempotent client retries); otherwise the epoch is bumped again, which
// is safe — epochs only need to be monotonic, not dense.
func (n *Node) Promote(minEpoch uint64) (uint64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	cur := n.epoch.Load()
	if n.role.Load() == uint32(Primary) && cur > minEpoch {
		return cur, nil
	}
	e := cur
	if minEpoch > e {
		e = minEpoch
	}
	e++
	if err := n.st.SetReplState(e, Primary); err != nil {
		return 0, err
	}
	n.epoch.Store(e)
	n.role.Store(uint32(Primary))
	// A fresh primary starts its fence lease from the promotion, not from
	// however long ago it was created: it gets the full grace window for
	// its own replicas to subscribe.
	n.subGone.Store(n.now())
	if n.applierStop != nil {
		n.applierStop()
		n.applierStop = nil
	}
	return e, nil
}

// adoptEpoch persists a higher epoch learned from the primary's handshake,
// so a client failing over against this replica later always gets an epoch
// superseding every primary the replica ever followed.
func (n *Node) adoptEpoch(e uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role.Load() != uint32(Replica) || e <= n.epoch.Load() {
		return nil
	}
	if err := n.st.SetReplState(e, Replica); err != nil {
		return err
	}
	n.epoch.Store(e)
	return nil
}

// Stats is a snapshot of the node's replication counters.
type Stats struct {
	Role        uint8
	Epoch       uint64
	Subscribers int
	Shipped     uint64 // records offered to subscribers
	Acks        uint64 // ack vectors processed
	Applied     uint64 // records applied by the local applier
}

// NodeStats returns a snapshot of the node's replication counters.
func (n *Node) NodeStats() Stats {
	return Stats{
		Role:        n.Role(),
		Epoch:       n.Epoch(),
		Subscribers: len(*n.subs.Load()),
		Shipped:     n.shipped.Load(),
		Acks:        n.acks.Load(),
		Applied:     n.applied.Load(),
	}
}

// Close stops the applier and every subscriber and uninstalls the commit
// hook. It does not close the store.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	if n.applierStop != nil {
		n.applierStop()
		n.applierStop = nil
	}
	n.mu.Unlock()
	for _, sub := range *n.subs.Load() {
		sub.Stop()
		<-sub.Done()
	}
	n.st.SetCommitHook(nil)
}

// ---------------------------------------------------------------------------

// Subscriber ships one replica's record stream: live records through a
// bounded queue, gaps (initial catch-up, queue overflow) through the log
// backlog. Cursors and acked watermarks are atomics so Flush and stats can
// observe them from other goroutines.
type Subscriber struct {
	n    *Node
	send func(Record) error

	q       chan queued
	lagging atomic.Bool // set on overflow; Run heals via backlog replay

	cursor []atomic.Uint64 // per-partition highest LSN sent
	ackv   []atomic.Uint64 // per-partition highest LSN acked durable

	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}
}

// queued is a live record on its way through a subscriber's queue, with the
// recBufs box its Key and Val share.
type queued struct {
	Record
	box *[]byte
}

// recBufs recycles offer's copies of key+val, as *[]byte so a round trip
// through the pool allocates nothing. Run returns each once its send is over
// (send keeps neither slice) or the record is dropped.
var recBufs sync.Pool

// offer enqueues one committed record, copying the borrowed key/value
// slices (they alias the committing writer's buffers) into one pooled
// buffer. A full queue marks the subscriber lagging; the dropped record is
// recovered from the log.
func (sub *Subscriber) offer(part int, lsn uint64, kind uint8, key, val []byte) {
	box, _ := recBufs.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	buf := append(append((*box)[:0], key...), val...)
	*box = buf
	rec := Record{Part: part, LSN: lsn, Kind: kind, Key: buf[:len(key):len(key)], Val: buf[len(key):]}
	select {
	case sub.q <- queued{rec, box}:
	default:
		recBufs.Put(box)
		sub.lagging.Store(true)
	}
}

// Run ships records until Stop, node close, or a send error (a dead
// transport); the caller owns reconnect policy. The cursor dedups the
// overlap between a backlog replay and records queued concurrently, so the
// replica's stream stays per-partition monotonic. Dropping a queued record
// at or below the cursor is safe because a backlog replay never advances
// the cursor past kv.ReplBacklog's barrier snapshot: every LSN at or below
// the barrier was already delivered by the replay (or superseded by a
// higher-LSN record for the same key), and every LSN above it is still in
// this queue — or recovered by the next replay if the queue overflowed.
func (sub *Subscriber) Run() error {
	defer sub.close()
	for {
		select {
		case <-sub.stopc:
			return nil
		default:
		}
		if sub.lagging.CompareAndSwap(true, false) {
			if err := sub.catchUp(); err != nil {
				return err
			}
			continue
		}
		select {
		case <-sub.stopc:
			return nil
		case rec := <-sub.q:
			var err error
			if rec.LSN > sub.cursor[rec.Part].Load() { // else already shipped by a backlog replay
				err = sub.deliver(rec.Record)
			}
			recBufs.Put(rec.box)
			if err != nil {
				return err
			}
		}
	}
}

// deliver sends one record and advances its partition's cursor past it.
func (sub *Subscriber) deliver(rec Record) error {
	if err := sub.send(rec); err != nil {
		return err
	}
	sub.cursor[rec.Part].Store(rec.LSN)
	return nil
}

// catchUp replays the reachable backlog above each partition cursor.
// ReplBacklog bounds the replay at a barrier snapshot of the partition's
// LSN taken under the partition's commit lock, so the cursor only
// ever advances over LSNs whose records were published and queue-offered
// before the replay's tree scan began — a record committed concurrently
// with the scan is above the barrier and stays the live queue's job.
func (sub *Subscriber) catchUp() error {
	for part := range sub.cursor {
		var fail error
		err := sub.n.st.ReplBacklog(part, sub.cursor[part].Load(),
			func(lsn uint64, kind uint8, key, val []byte) bool {
				// key and val alias the replay's memory: never pooled.
				fail = sub.deliver(Record{Part: part, LSN: lsn, Kind: kind, Key: key, Val: val})
				return fail == nil
			})
		if err == nil {
			err = fail
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Ack folds the replica's durable watermark vector into the subscriber and
// the node. Safe to call from the transport's read goroutine.
func (sub *Subscriber) Ack(lsns []uint64) {
	for i := 0; i < len(lsns) && i < len(sub.ackv); i++ {
		if lsns[i] > sub.ackv[i].Load() {
			sub.ackv[i].Store(lsns[i])
		}
	}
	sub.n.acks.Add(1)
	sub.n.advanceDurable(lsns)
}

// Flush blocks until the replica has acked everything committed to the
// store at the time of each check — the server's drain uses it to guarantee
// a shutdown loses no acked-durable write and hands the replica the full
// stream first. Returns an error if the subscriber dies or ctx expires.
func (sub *Subscriber) Flush(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if sub.caughtUp() {
			return nil
		}
		select {
		case <-sub.donec:
			return errors.New("repl: subscriber stopped before flush completed")
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (sub *Subscriber) caughtUp() bool {
	for p := range sub.ackv {
		if sub.ackv[p].Load() < sub.n.st.ReplLSN(p) {
			return false
		}
	}
	return true
}

// Stop asks Run to exit; Done is closed when it has.
func (sub *Subscriber) Stop() {
	sub.stopOnce.Do(func() { close(sub.stopc) })
}

// Done reports Run's completion (also closed if Run was never started and
// close was called by the node).
func (sub *Subscriber) Done() <-chan struct{} { return sub.donec }

func (sub *Subscriber) close() {
	n := sub.n
	n.mu.Lock()
	var subs []*Subscriber
	for _, s := range *n.subs.Load() {
		if s != sub {
			subs = append(subs, s)
		}
	}
	n.subs.Store(&subs)
	if len(subs) == 0 {
		// The fence lease starts counting from the last subscriber's exit.
		n.subGone.Store(n.now())
	}
	n.mu.Unlock()
	close(sub.donec)
}
