package repl

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"rntree/internal/clock"
	"rntree/kv"
)

func testOpts() kv.Options {
	return kv.Options{ArenaSize: 8 << 20, ChunkSize: 512, Partitions: 2}
}

func newStore(t *testing.T) *kv.Store {
	t.Helper()
	st, err := kv.New(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestNewNodeRoles(t *testing.T) {
	// A fresh primary persists epoch 1; 0 means "never replicated".
	p := newStore(t)
	np, err := NewNode(p, Primary)
	if err != nil {
		t.Fatal(err)
	}
	if np.Role() != Primary || np.Epoch() != 1 {
		t.Fatalf("fresh primary: role %d epoch %d", np.Role(), np.Epoch())
	}
	if e, r := p.ReplState(); e != 1 || r != Primary {
		t.Fatalf("persisted state (%d, %d)", e, r)
	}

	// A fresh replica persists its role so a restart stays read-only.
	r := newStore(t)
	nr, err := NewNode(r, Replica)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Role() != Replica || nr.Epoch() != 0 {
		t.Fatalf("fresh replica: role %d epoch %d", nr.Role(), nr.Epoch())
	}

	// Persisted state wins over the requested role: a promoted replica
	// restarted with its old -replica-of flags must stay primary.
	nr.Close()
	if _, err := nr.Promote(4); err != nil {
		t.Fatal(err)
	}
	again, err := NewNode(r, Replica)
	if err != nil {
		t.Fatal(err)
	}
	if again.Role() != Primary || again.Epoch() != 5 {
		t.Fatalf("reopened promoted node: role %d epoch %d", again.Role(), again.Epoch())
	}

	if _, err := NewNode(newStore(t), 9); err == nil {
		t.Fatal("bad role accepted")
	}
}

func TestPromoteIdempotentAndMonotonic(t *testing.T) {
	n, err := NewNode(newStore(t), Replica)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := n.Promote(7)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != 8 {
		t.Fatalf("promote above minEpoch 7 gave epoch %d", e1)
	}
	// Retrying with a stale minEpoch is a no-op.
	e2, err := n.Promote(7)
	if err != nil || e2 != e1 {
		t.Fatalf("retry: epoch %d, err %v", e2, err)
	}
	// A higher minEpoch (another primary existed meanwhile) bumps again.
	e3, err := n.Promote(20)
	if err != nil || e3 != 21 {
		t.Fatalf("re-promote: epoch %d, err %v", e3, err)
	}
}

// Subscribe ships the backlog before live records, keeps per-partition LSN
// order, and heals queue overflow from the log.
func TestSubscribeShipsBacklogThenLive(t *testing.T) {
	st := newStore(t)
	n, err := NewNode(st, Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for i := 0; i < 20; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	lastLSN := make(map[int]uint64)
	var got []Record
	send := func(rec Record) error {
		mu.Lock()
		defer mu.Unlock()
		if rec.LSN <= lastLSN[rec.Part] {
			t.Errorf("partition %d: LSN %d after %d", rec.Part, rec.LSN, lastLSN[rec.Part])
		}
		lastLSN[rec.Part] = rec.LSN
		got = append(got, Record{Part: rec.Part, LSN: rec.LSN, Kind: rec.Kind,
			Key: append([]byte(nil), rec.Key...), Val: append([]byte(nil), rec.Val...)})
		return nil
	}
	sub, err := n.Subscribe(make([]uint64, st.Partitions()), send)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- sub.Run() }()

	// Live traffic lands on top of the backlog.
	for i := 20; i < 30; i++ {
		if err := st.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("live")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		total := len(got)
		mu.Unlock()
		if total >= 30 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d of 30 records shipped", total)
		case <-time.After(time.Millisecond):
		}
	}
	sub.Stop()
	if err := <-runDone; err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Subscribing with a mismatched cursor vector is rejected.
	if _, err := n.Subscribe(make([]uint64, 5), send); err == nil {
		t.Fatal("bad cursor vector accepted")
	}
}

// TestDurableHook: the durable hook hears of every rise of a partition's
// watermark, once, with the new watermark, and with no lock of the node's
// held (it answers clients and must not serialise the node); the watermark
// only rises, so a stale or repeated ack calls nothing.
func TestDurableHook(t *testing.T) {
	st := newStore(t)
	n, err := NewNode(st, Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	part, lsn, err := st.PutEx([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		part int
		lsn  uint64
	}
	var calls []call
	n.SetDurableHook(func(part int, lsn uint64) {
		if !n.mu.TryLock() {
			t.Error("durable hook called with the node's lock held")
		} else {
			n.mu.Unlock()
		}
		calls = append(calls, call{part, lsn})
	})
	// Subscribing from zero watermarks raises nothing.
	sub, err := n.Subscribe(make([]uint64, st.Partitions()), func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	go sub.Run()
	defer sub.Stop()
	if len(calls) != 0 || n.DurableLSN(part) != 0 {
		t.Fatalf("subscribe from zero: hook calls %v, watermark %d", calls, n.DurableLSN(part))
	}
	ack := make([]uint64, st.Partitions())
	ack[part] = lsn
	sub.Ack(ack)
	if want := []call{{part, lsn}}; !slices.Equal(calls, want) || n.DurableLSN(part) != lsn {
		t.Fatalf("ack of LSN %d: hook calls %v, watermark %d; want %v", lsn, calls, n.DurableLSN(part), want)
	}
	// Stale and repeated acks never regress the watermark or call the hook.
	sub.Ack(make([]uint64, st.Partitions()))
	sub.Ack(ack)
	if len(calls) != 1 || n.DurableLSN(part) != lsn {
		t.Fatalf("stale acks: hook calls %v, watermark %d (want %d)", calls, n.DurableLSN(part), lsn)
	}
	// A second subscriber resuming from a higher watermark raises it too.
	ack[part] = lsn + 5
	sub2, err := n.Subscribe(ack, func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	go sub2.Run()
	if len(calls) != 2 || calls[1] != (call{part, lsn + 5}) || n.DurableLSN(part) != lsn+5 {
		t.Fatalf("resubscribe from %d: hook calls %v, watermark %d", lsn+5, calls, n.DurableLSN(part))
	}
	n.SetDurableHook(nil)
	ack[part] = lsn + 6
	sub.Ack(ack)
	if len(calls) != 2 || n.DurableLSN(part) != lsn+6 {
		t.Fatalf("unset hook: hook calls %v, watermark %d", calls, n.DurableLSN(part))
	}
}

// The in-process link is the zero-network wait-for-replica-durable mode:
// after any sequence of mutations both stores match, and CatchUp heals a
// replica that joined late.
func TestLinkAndCatchUp(t *testing.T) {
	p, r := newStore(t), newStore(t)
	link := NewLink(p, r)
	for i := 0; i < 30; i++ {
		if err := p.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i += 2 {
		if err := p.Delete([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := link.Err(); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, p, r)
	link.Unlink()

	// A fresh replica converges from the backlog alone.
	late := newStore(t)
	if err := CatchUp(p, late); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, p, late)
}

// Async-mode loss bound: a replica that received only a prefix of the
// stream before the primary vanished is exactly the acked prefix — the
// unacked tail is the only loss, and resuming from the replica's durable
// watermarks re-ships exactly that tail.
func TestAsyncTailLossBound(t *testing.T) {
	p, r := newStore(t), newStore(t)
	np, err := NewNode(p, Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer np.Close()

	// A subscriber that dies mid-stream: the transport delivers k records
	// and then fails, like a primary crashing with the tail unshipped.
	const total, delivered = 40, 17
	n := 0
	send := func(rec Record) error {
		if n >= delivered {
			return fmt.Errorf("transport died")
		}
		n++
		return r.ReplApply(rec.Part, rec.LSN, rec.Kind, rec.Key, rec.Val)
	}
	for i := 0; i < total; i++ {
		if err := p.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := np.Subscribe(make([]uint64, p.Partitions()), send)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Run(); err == nil {
		t.Fatal("Run survived a dead transport")
	}

	// The replica holds a per-partition prefix: its contents are exactly
	// the records at or below its watermarks.
	for part := 0; part < r.Partitions(); part++ {
		w := r.ReplLSN(part)
		if w > p.ReplLSN(part) {
			t.Fatalf("partition %d: replica watermark %d ahead of primary %d", part, w, p.ReplLSN(part))
		}
		err := p.ReplBacklog(part, 0, func(lsn uint64, kind uint8, key, val []byte) bool {
			if lsn > w {
				return true // the lost tail
			}
			v, err := r.Get(key)
			if kind == kv.ReplDelete {
				return true
			}
			if err != nil || string(v) != string(val) {
				t.Fatalf("partition %d: acked record lsn %d (%q) missing from replica: %q, %v",
					part, lsn, key, v, err)
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Reconnect semantics: catching up from the watermarks re-ships the
	// tail and nothing is lost end to end.
	if err := CatchUp(p, r); err != nil {
		t.Fatal(err)
	}
	assertStoresEqual(t, p, r)
}

func assertStoresEqual(t *testing.T, a, b *kv.Store) {
	t.Helper()
	am := map[string]string{}
	a.Range(func(k, v []byte) bool { am[string(k)] = string(v); return true })
	n := 0
	b.Range(func(k, v []byte) bool {
		n++
		if am[string(k)] != string(v) {
			t.Fatalf("stores diverge at %q: %q vs %q", k, am[string(k)], v)
		}
		return true
	})
	if n != len(am) {
		t.Fatalf("stores diverge in size: %d vs %d keys", len(am), n)
	}
}

// A primary with a fence lease steps down to read-only (Fenced) once every
// subscriber has been gone longer than the lease, and recovers the moment
// one subscribes — closing client-driven failover's divergence window.
func TestFenceLease(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0)) // the lease's clock: the test advances it, nothing sleeps
	st, err := kv.New(kv.Options{ArenaSize: 8 << 20, ChunkSize: 512, Partitions: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(st, Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Fenced() {
		t.Fatal("fenced with fencing disabled")
	}
	const lease = 20 * time.Millisecond
	n.SetFenceLease(lease)
	if clk.Advance(lease); n.Fenced() {
		t.Fatal("fenced inside the arming grace window")
	}
	if clk.Advance(1); !n.Fenced() {
		t.Fatal("not fenced after the lease expired with no subscriber")
	}
	sub, err := n.Subscribe(make([]uint64, n.Store().Partitions()), func(Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n.Fenced() {
		t.Fatal("fenced with a live subscriber")
	}
	go sub.Run()
	sub.Stop()
	<-sub.Done()
	if n.Fenced() {
		t.Fatal("fenced immediately after a disconnect: the lease must re-arm")
	}
	if clk.Advance(lease + 1); !n.Fenced() {
		t.Fatal("not re-fenced a lease after the subscriber left")
	}
	// A promotion re-arms the lease: the fresh primary gets a grace window.
	if _, err := n.Promote(n.Epoch()); err != nil {
		t.Fatal(err)
	}
	if n.Fenced() {
		t.Fatal("fenced immediately after promotion")
	}
}
