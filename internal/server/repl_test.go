package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/clock"
	"rntree/internal/repl"
	"rntree/kv"
)

// replKVOpts is a replication test's store options: small, two partitions,
// and a fake clock of its own, so a test ages a fence lease or a durable-ack
// deadline by advancing it, not by sleeping.
func replKVOpts() kv.Options {
	return kv.Options{ArenaSize: 16 << 20, ChunkSize: 1 << 12, Partitions: 2, Clock: newFake()}
}

func newFake() *clock.Fake { return clock.NewFake(time.Unix(1_000_000, 0)) }

// fakeOf returns st's clock, which the test built as a fake.
func fakeOf(st *kv.Store) *clock.Fake { return st.Clock().(*clock.Fake) }

// awaitStat polls STATS until counter name reads want, and fails the test
// after 10 s: it waits for the server to get somewhere, not for time to pass.
func awaitStat(t *testing.T, c *client.Client, name string, want uint64) map[string]uint64 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		stats, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if stats[name] == want {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("STATS %s = %d, want %d", name, stats[name], want)
		}
	}
}

// startReplPair spins up a primary and a replica server on loopback, with
// the replica's applier subscribed to the primary.
func startReplPair(t *testing.T, pcfg, rcfg Config) (pNode, rNode *repl.Node, pAddr, rAddr string) {
	t.Helper()
	pst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	pNode, err = repl.NewNode(pst, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	pcfg.Repl = pNode
	_, _, pAddr = startServerOn(t, pcfg, pst)

	rst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	rNode, err = repl.NewNode(rst, repl.Replica)
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Repl = rNode
	_, _, rAddr = startServerOn(t, rcfg, rst)

	applierDone := make(chan error, 1)
	go func() {
		applierDone <- rNode.RunApplier(repl.ApplierConfig{Addr: pAddr})
	}()
	t.Cleanup(func() {
		rNode.Close()
		pNode.Close()
		select {
		case err := <-applierDone:
			if err != nil {
				t.Errorf("applier: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("applier did not stop")
		}
	})
	return pNode, rNode, pAddr, rAddr
}

// startServerOn is startServer for a caller-built store.
func startServerOn(t *testing.T, scfg Config, st *kv.Store) (*Server, *kv.Store, string) {
	t.Helper()
	srv := New(st, scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, st, ln.Addr().String()
}

func waitConverged(t *testing.T, pNode, rNode *repl.Node) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if storesEqual(pNode.Store(), rNode.Store()) {
			return
		}
		select {
		case <-deadline:
			t.Fatal("replica did not converge")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func storesEqual(a, b *kv.Store) bool {
	am := map[string]string{}
	a.Range(func(k, v []byte) bool { am[string(k)] = string(v); return true })
	n := 0
	ok := true
	b.Range(func(k, v []byte) bool {
		n++
		if am[string(k)] != string(v) {
			ok = false
			return false
		}
		return true
	})
	return ok && n == len(am)
}

func TestReplicationEndToEnd(t *testing.T) {
	pNode, rNode, pAddr, rAddr := startReplPair(t, Config{}, Config{})
	c := dial(t, pAddr, client.Options{})

	// Async writes converge to the replica.
	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := c.Delete([]byte("k007")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pNode, rNode)

	// A durable PUT is on the replica the moment the ack returns — no
	// waiting, no convergence poll.
	if err := c.PutDurable([]byte("durable-key"), []byte("durable-val")); err != nil {
		t.Fatalf("PutDurable: %v", err)
	}
	if v, err := rNode.Store().Get([]byte("durable-key")); err != nil || string(v) != "durable-val" {
		t.Fatalf("durable write not on replica at ack time: %q, %v", v, err)
	}

	// The replica serves reads but rejects writes.
	rc := dial(t, rAddr, client.Options{})
	if v, err := rc.Get([]byte("durable-key")); err != nil || string(v) != "durable-val" {
		t.Fatalf("replica Get: %q, %v", v, err)
	}
	if err := rc.Put([]byte("x"), []byte("y")); err != client.ErrReadOnly {
		t.Fatalf("replica Put: %v, want ErrReadOnly", err)
	}
	if err := rc.Delete([]byte("durable-key")); err != client.ErrReadOnly {
		t.Fatalf("replica Delete: %v, want ErrReadOnly", err)
	}

	// ReplState reports both sides of the pair.
	role, epoch, lsns, err := c.ReplState()
	if err != nil || role != client.RolePrimary || epoch != 1 {
		t.Fatalf("primary ReplState: role %d epoch %d err %v", role, epoch, err)
	}
	if len(lsns) != pNode.Store().Partitions() {
		t.Fatalf("primary LSN vector has %d entries", len(lsns))
	}
	if role, _, _, err = rc.ReplState(); err != nil || role != client.RoleReplica {
		t.Fatalf("replica ReplState: role %d err %v", role, err)
	}

	// Replication counters surface in stats.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["repl_role"] != uint64(client.RolePrimary) || stats["repl_subscribers"] != 1 {
		t.Fatalf("primary stats: role %d subscribers %d", stats["repl_role"], stats["repl_subscribers"])
	}
	if stats["repl_shipped"] == 0 || stats["repl_acks"] == 0 {
		t.Fatalf("primary stats: shipped %d acks %d", stats["repl_shipped"], stats["repl_acks"])
	}
}

// TestDurablePutPersistCount pins what replication adds to a write's NVM
// cost, exactly (persist counts do not depend on host noise): waiting for
// the replica costs the primary no persist beyond a plain PUT's, and the
// replica pays one apply commit — each measured on a twin store of the same
// geometry running just that commit.
func TestDurablePutPersistCount(t *testing.T) {
	pNode, rNode, pAddr, _ := startReplPair(t, Config{}, Config{})
	pst, rst := pNode.Store(), rNode.Store()
	c := dial(t, pAddr, client.Options{})
	// The first durable PUT's ack proves the subscription handshake (which
	// persists the adopted epoch on the replica) is over; the second is the
	// one measured. Each ack proves the replica applied the record, so both
	// sides are idle when the counters are read.
	type shipped struct {
		part int
		lsn  uint64
		key  []byte
	}
	var recs []shipped
	var primary, replica uint64
	for _, key := range []string{"warm-up-key", "durable-key"} {
		lsns := pst.ReplLSNs()
		pBefore, rBefore := pst.Stats().Persists, rst.Stats().Persists
		if err := c.PutDurable([]byte(key), []byte("durable-val")); err != nil {
			t.Fatalf("PutDurable: %v", err)
		}
		primary, replica = pst.Stats().Persists-pBefore, rst.Stats().Persists-rBefore
		for part, l := range pst.ReplLSNs() {
			if l != lsns[part] {
				recs = append(recs, shipped{part, l, []byte(key)})
			}
		}
	}
	if len(recs) != 2 {
		t.Fatalf("two durable PUTs advanced %d partition LSNs", len(recs))
	}
	// twin replays both commits on a fresh store and counts the second.
	twin := func(commit func(st *kv.Store, r shipped) error) (n uint64) {
		st, err := kv.New(replKVOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			before := st.Stats().Persists
			if err := commit(st, r); err != nil {
				t.Fatal(err)
			}
			n = st.Stats().Persists - before
		}
		return n
	}
	if want := twin(func(st *kv.Store, r shipped) error { return st.Put(r.key, []byte("durable-val")) }); primary != want {
		t.Errorf("durable PUT issued %d persists on the primary, a plain PUT issues %d", primary, want)
	}
	if want := twin(func(st *kv.Store, r shipped) error {
		return st.ReplApply(r.part, r.lsn, kv.ReplPut, r.key, []byte("durable-val"))
	}); replica != want {
		t.Errorf("durable PUT issued %d persists on the replica, one apply commit issues %d", replica, want)
	}
}

// TestAckAtDrain: the replica acks whenever its inbound stream drains, so on
// an otherwise idle pair — default ApplierConfig, one record in flight at a
// time, the worst case for any count- or timer-driven cadence — every
// durable PUT comes back with its own ack and at network speed. (With acks
// every 32 records or 20 ms, each of these waited out the timer.)
func TestAckAtDrain(t *testing.T) {
	pNode, _, pAddr, _ := startReplPair(t, Config{}, Config{})
	c := dial(t, pAddr, client.Options{})
	const n = 21
	var lat [n]time.Duration
	for i := range lat {
		acks := pNode.NodeStats().Acks
		start := time.Now()
		if err := c.PutDurable([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatalf("PutDurable %d: %v", i, err)
		}
		lat[i] = time.Since(start)
		if got := pNode.NodeStats().Acks; got <= acks {
			t.Fatalf("durable PUT %d returned with Acks still %d", i, got)
		}
	}
	slices.Sort(lat[:])
	if med := lat[n/2]; med > 10*time.Millisecond {
		t.Errorf("median lone durable PUT took %v: something is pacing the acks", med)
	}
}

// Without a replica connected, a durable PUT commits locally but reports
// the replication-lag error — the acks=all timeout contract.
func TestDurablePutTimesOutWithoutReplica(t *testing.T) {
	st, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	node, err := repl.NewNode(st, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	const timeout = 20 * time.Millisecond
	_, _, addr := startServerOn(t, Config{Repl: node, ReplDurableTimeout: timeout}, st)
	c := dial(t, addr, client.Options{})

	putErr := make(chan error, 1)
	go func() { putErr <- c.PutDurable([]byte("k"), []byte("v")) }()
	awaitStat(t, c, "repl_durable_pending", 1)
	fakeOf(st).Advance(timeout)
	if err := <-putErr; err == nil {
		t.Fatal("durable PUT acked with no replica connected")
	}
	// The write is committed locally regardless.
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("local commit missing after durable timeout: %q, %v", v, err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["repl_durable_timeouts"] == 0 {
		t.Fatal("durable timeout not counted")
	}
}

// Applying a shipped record must invalidate the replica's hot-key cache: a
// GET served from the replica's cache before an update must re-read after
// the shipped record lands.
func TestReplicaCacheInvalidation(t *testing.T) {
	pNode, rNode, pAddr, rAddr := startReplPair(t,
		Config{},
		Config{Cache: CacheConfig{Enable: true, MaxEntries: 1024}})
	c := dial(t, pAddr, client.Options{})
	rc := dial(t, rAddr, client.Options{})

	if err := c.PutDurable([]byte("hot"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Warm the replica's cache with v1.
	if v, err := rc.Get([]byte("hot")); err != nil || string(v) != "v1" {
		t.Fatalf("warm read: %q, %v", v, err)
	}
	if err := c.PutDurable([]byte("hot"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, pNode, rNode)
	if v, err := rc.Get([]byte("hot")); err != nil || string(v) != "v2" {
		t.Fatalf("replica cache served stale value after shipped update: %q, %v", v, err)
	}
}

// Satellite: a drain with the ship stream in flight must hand the replica
// every acked write before closing the replica connection — zero lost
// acks across a planned shutdown.
func TestDrainFlushesShipStream(t *testing.T) {
	pst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	pNode, err := repl.NewNode(pst, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	psrv := New(pst, Config{Repl: pNode})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- psrv.Serve(ln) }()

	rst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	rNode, err := repl.NewNode(rst, repl.Replica)
	if err != nil {
		t.Fatal(err)
	}
	applierDone := make(chan error, 1)
	go func() {
		applierDone <- rNode.RunApplier(repl.ApplierConfig{Addr: ln.Addr().String()})
	}()

	// Pump writes and shut down immediately, with the ship stream almost
	// certainly mid-flight.
	c, err := client.Dial(ln.Addr().String(), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := psrv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	c.Close()
	rNode.Close()
	pNode.Close()
	select {
	case <-applierDone:
	case <-time.After(5 * time.Second):
		t.Fatal("applier did not stop after shutdown")
	}

	// Every acked write made it: the replica's store equals the primary's.
	if !storesEqual(pst, rst) {
		t.Fatal("drain lost acked writes: replica does not match primary")
	}
	for part := 0; part < pst.Partitions(); part++ {
		if rst.ReplLSN(part) != pst.ReplLSN(part) {
			t.Fatalf("partition %d: replica watermark %d, primary %d",
				part, rst.ReplLSN(part), pst.ReplLSN(part))
		}
	}
}

// Client-driven failover: kill the primary, and the failover client
// promotes the replica and keeps serving with no acked write lost.
func TestClientFailover(t *testing.T) {
	pst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	pNode, err := repl.NewNode(pst, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	psrv := New(pst, Config{Repl: pNode})
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pDone := make(chan error, 1)
	go func() { pDone <- psrv.Serve(pln) }()

	rst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	rNode, err := repl.NewNode(rst, repl.Replica)
	if err != nil {
		t.Fatal(err)
	}
	_, _, rAddr := startServerOn(t, Config{Repl: rNode}, rst)
	t.Cleanup(rNode.Close)
	applierDone := make(chan error, 1)
	go func() {
		applierDone <- rNode.RunApplier(repl.ApplierConfig{Addr: pln.Addr().String()})
	}()

	fo, err := client.DialFailover([]string{pln.Addr().String(), rAddr}, client.Options{
		DialTimeout: 200 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fo.Close() })
	if fo.Addr() != pln.Addr().String() {
		t.Fatalf("failover client picked %s, want the primary %s", fo.Addr(), pln.Addr().String())
	}

	// Durable writes: acked ⇒ on the replica ⇒ must survive the failover.
	for i := 0; i < 20; i++ {
		if err := fo.PutDurable([]byte(fmt.Sprintf("d%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("PutDurable %d: %v", i, err)
		}
	}

	// Hard-kill the primary: drop its listener and connections without a
	// drain.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	psrv.Shutdown(ctx)
	cancel()
	<-pDone
	pNode.Close()

	// The next op fails over: the client promotes the replica and retries.
	killed := time.Now()
	if err := fo.Put([]byte("after-failover"), []byte("ok")); err != nil {
		t.Fatalf("Put after primary death: %v", err)
	}
	// The only place this number is measured: election + promotion + the
	// first acked write on the new primary.
	t.Logf("kill to first acked write: %v", time.Since(killed).Round(10*time.Microsecond))
	if fo.Addr() != rAddr {
		t.Fatalf("failover client on %s, want the promoted replica %s", fo.Addr(), rAddr)
	}
	if fo.Epoch() <= 1 {
		t.Fatalf("promotion did not supersede the old epoch: %d", fo.Epoch())
	}

	// Every durable (acked) write survived.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("d%03d", i)
		v, err := fo.Get([]byte(key))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("acked durable write %s lost across failover: %q, %v", key, v, err)
		}
	}
	if v, err := fo.Get([]byte("after-failover")); err != nil || string(v) != "ok" {
		t.Fatalf("post-failover write: %q, %v", v, err)
	}

	// Promotion stops the reconnect loop: a primary must not keep trying
	// to follow anyone.
	select {
	case <-applierDone:
	case <-time.After(5 * time.Second):
		t.Fatal("applier kept running after promotion")
	}
}

// Satellite of the failover review: a primary with a fence lease stops
// acking writes once its replica has been gone longer than the lease
// (StatusReadOnly -> client.ErrReadOnly), so async acks cannot silently
// diverge from a promoted replica, and resumes as soon as one resubscribes.
func TestFenceLeaseRejectsWrites(t *testing.T) {
	pst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	pNode, err := repl.NewNode(pst, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer pNode.Close()
	// The lease runs on the store's fake clock: it expires when the test
	// says so, not when a loaded host takes 25 ms over a dial and a put.
	const lease = 25 * time.Millisecond
	clk := fakeOf(pst)
	_, _, pAddr := startServerOn(t, Config{Repl: pNode, ReplFenceLease: lease}, pst)

	c, err := client.Dial(pAddr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Inside the grace window the primary still accepts writes.
	if err := c.Put([]byte("before"), []byte("v")); err != nil {
		t.Fatalf("put inside grace window: %v", err)
	}
	// At the lease exactly it still does; one tick past it, with no replica
	// ever subscribed, writes are fenced.
	clk.Advance(lease)
	if err := c.Put([]byte("at-lease"), []byte("v")); err != nil {
		t.Fatalf("put at the lease's last instant: %v", err)
	}
	clk.Advance(1)
	if err := c.Put([]byte("fenced"), []byte("v")); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("put past the lease: %v, want ErrReadOnly", err)
	}
	if m, err := c.Stats(); err != nil || m["repl_fenced"] != 1 || m["repl_fence_rejects"] == 0 {
		t.Fatalf("fence counters: repl_fenced=%d repl_fence_rejects=%d err=%v",
			m["repl_fenced"], m["repl_fence_rejects"], err)
	}
	// Reads still serve while fenced.
	if v, err := c.Get([]byte("before")); err != nil || string(v) != "v" {
		t.Fatalf("fenced read: %q, %v", v, err)
	}

	// A replica subscribing lifts the fence.
	rst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	rNode, err := repl.NewNode(rst, repl.Replica)
	if err != nil {
		t.Fatal(err)
	}
	applierDone := make(chan error, 1)
	go func() {
		applierDone <- rNode.RunApplier(repl.ApplierConfig{Addr: pAddr})
	}()
	defer func() {
		rNode.Close()
		select {
		case err := <-applierDone:
			if err != nil {
				t.Errorf("applier: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("applier did not stop")
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Put([]byte("after"), []byte("v"))
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrReadOnly) {
			t.Fatalf("put while replica subscribing: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("fence never lifted after the replica subscribed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
