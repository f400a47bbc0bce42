package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rntree/client"
	"rntree/internal/obj"
	"rntree/internal/repl"
	"rntree/internal/wire"
	"rntree/kv"
)

// startObjServer is startServer with a typed-object layer attached to a
// store on a fake clock (fakeOf), in primary mode with its expirer stopped
// (Close): a lapsed key stays unreaped until the test ticks by hand or a
// write of the name reaps it.
func startObjServer(t *testing.T, scfg Config) (*obj.Store, *kv.Store, string) {
	t.Helper()
	st, err := kv.New(kv.Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 2, Clock: newFake()})
	if err != nil {
		t.Fatal(err)
	}
	o, err := obj.Attach(st, obj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	scfg.Obj = o
	_, _, addr := startServerOn(t, scfg, st)
	return o, st, addr
}

// TestServerObjOps drives every typed verb end-to-end through the client,
// plus the flat-path interactions: reserved-namespace rejection, the GET
// expiry mask, SCAN hiding internal records, and the obj counters in STATS.
func TestServerObjOps(t *testing.T) {
	o, st, addr := startObjServer(t, Config{Cache: CacheConfig{Enable: true}})
	c := dial(t, addr, client.Options{})

	// Hash verbs.
	if err := c.HSet([]byte("user:1"), []byte("name"), []byte("ada")); err != nil {
		t.Fatalf("HSet: %v", err)
	}
	if err := c.HSet([]byte("user:1"), []byte("lang"), []byte("go")); err != nil {
		t.Fatalf("HSet: %v", err)
	}
	if v, err := c.HGet([]byte("user:1"), []byte("name")); err != nil || string(v) != "ada" {
		t.Fatalf("HGet = %q, %v", v, err)
	}
	if _, err := c.HGet([]byte("user:1"), []byte("absent")); err != client.ErrNotFound {
		t.Fatalf("absent HGet: %v", err)
	}
	if err := c.HDel([]byte("user:1"), []byte("lang")); err != nil {
		t.Fatalf("HDel: %v", err)
	}
	if err := c.HDel([]byte("user:1"), []byte("lang")); err != client.ErrNotFound {
		t.Fatalf("double HDel: %v", err)
	}

	// Set verbs.
	for _, m := range []string{"a", "b", "c"} {
		if err := c.SAdd([]byte("tags"), []byte(m)); err != nil {
			t.Fatalf("SAdd %s: %v", m, err)
		}
	}
	if err := c.SRem([]byte("tags"), []byte("b")); err != nil {
		t.Fatalf("SRem: %v", err)
	}
	members, err := c.SMembers([]byte("tags"))
	if err != nil || len(members) != 2 {
		t.Fatalf("SMembers = %v, %v", members, err)
	}
	// Type confusion is a clean error, not corruption.
	if err := c.SAdd([]byte("user:1"), []byte("x")); err == nil || !strings.Contains(err.Error(), "wrong kind") {
		t.Fatalf("SAdd on a hash: %v", err)
	}

	// TTL verbs, over a flat key and an object.
	if err := c.Put([]byte("flat"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Expire([]byte("flat"), 5_000); err != nil {
		t.Fatalf("Expire: %v", err)
	}
	if ttl, err := c.TTL([]byte("flat")); err != nil || ttl <= 0 || ttl > 5_000 {
		t.Fatalf("TTL = %d, %v", ttl, err)
	}
	// A TTL past the clock's range is an error, and leaves the key's TTL.
	if err := c.Expire([]byte("flat"), 1<<63); err == nil || !strings.Contains(err.Error(), obj.ErrBadTTL.Error()) {
		t.Fatalf("Expire with a huge TTL: %v, want %v", err, obj.ErrBadTTL)
	}
	if ttl, err := c.TTL([]byte("flat")); err != nil || ttl <= 0 || ttl > 5_000 {
		t.Fatalf("TTL after a refused Expire = %d, %v", ttl, err)
	}
	if ttl, err := c.TTL([]byte("tags")); err != nil || ttl != -1 {
		t.Fatalf("TTL of persistent key = %d, %v", ttl, err)
	}
	if _, err := c.TTL([]byte("nope")); err != client.ErrNotFound {
		t.Fatalf("TTL of absent key: %v", err)
	}
	if err := c.Expire([]byte("user:1"), 5_000); err != nil {
		t.Fatalf("Expire object: %v", err)
	}
	if err := c.Persist([]byte("user:1")); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	if ttl, err := c.TTL([]byte("user:1")); err != nil || ttl != -1 {
		t.Fatalf("TTL after Persist = %d, %v", ttl, err)
	}

	// The flat GET path masks a lapsed-but-unreaped key — including one
	// already resident in the hot-key cache.
	if v, err := c.Get([]byte("flat")); err != nil || string(v) != "v" {
		t.Fatalf("Get before expiry: %q, %v", v, err)
	}
	fakeOf(st).Advance(6 * time.Second)
	if _, err := c.Get([]byte("flat")); err != client.ErrNotFound {
		t.Fatalf("Get after expiry: %v", err)
	}
	if reaped := o.ExpireTick(); reaped != 1 {
		t.Fatalf("ExpireTick reaped %d, want 1", reaped)
	}

	// SCAN never surfaces object-layer records.
	pairs, err := c.Scan(nil, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if obj.IsInternalKey(p.Key) {
			t.Fatalf("SCAN leaked internal record %q", p.Key)
		}
	}

	// The reserved namespace is unreachable through flat verbs.
	for _, op := range []func() error{
		func() error { return c.Put([]byte{obj.NSByte, 'H', 'x'}, []byte("v")) },
		func() error { return c.Delete([]byte{obj.NSByte, 'H', 'x'}) },
		func() error { _, err := c.Get([]byte{obj.NSByte, 'H', 'x'}); return err },
	} {
		if err := op(); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Fatalf("reserved-namespace access: %v", err)
		}
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["obj_reaps"] != 1 {
		t.Fatalf("obj_reaps = %d, want 1", stats["obj_reaps"])
	}
	if stats["obj_lazy_expiries"] == 0 {
		t.Fatal("lazy expiry not counted")
	}
}

// TestObjReservedNameOverWire: a typed verb naming a key inside the reserved
// namespace — here object user:1's own header key — is refused end to end,
// on the reader (TTL) and through the committer (HSET), instead of answering
// for the internal record.
func TestObjReservedNameOverWire(t *testing.T) {
	_, _, addr := startObjServer(t, Config{})
	c := dial(t, addr, client.Options{})
	if err := c.HSet([]byte("user:1"), []byte("f"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hk := append(kv.AppendRoute(nil, []byte("user:1")), 'H')
	if ttl, err := c.TTL(hk); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("TTL of a header key = %d, %v; want the reserved-namespace error", ttl, err)
	}
	if err := c.HSet(hk, []byte("f"), []byte("v")); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("HSET on a header key: %v; want the reserved-namespace error", err)
	}
}

// Without Config.Obj, the typed verbs answer with a clean error and the
// flat path is untouched (no reserved-namespace policing of a layer that
// does not exist).
func TestObjVerbsDisabled(t *testing.T) {
	_, _, addr := startServer(t, Config{}, kv.Options{})
	c := dial(t, addr, client.Options{})
	if err := c.HSet([]byte("h"), []byte("f"), []byte("v")); err == nil ||
		!strings.Contains(err.Error(), "disabled") {
		t.Fatalf("HSet without obj layer: %v", err)
	}
	if err := c.Put([]byte{obj.NSByte, 'z'}, []byte("v")); err != nil {
		t.Fatalf("flat Put of 0x01-prefixed key without obj layer: %v", err)
	}
}

// Composite writes must invalidate the hot-key cache entry of the SAME
// name: an Expire-driven reap deletes the flat key out from under a cached
// GET.
func TestObjWriteInvalidatesCache(t *testing.T) {
	_, st, addr := startObjServer(t, Config{Cache: CacheConfig{Enable: true}})
	c := dial(t, addr, client.Options{})

	if err := c.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Two reads: miss+fill, then hit — k is resident.
	for i := 0; i < 2; i++ {
		if v, err := c.Get([]byte("k")); err != nil || string(v) != "v1" {
			t.Fatalf("Get: %q, %v", v, err)
		}
	}
	// An expired name being HSet is reaped inside the composite; the cached
	// flat "k" must not survive it.
	if err := c.Expire([]byte("k"), 10); err != nil {
		t.Fatal(err)
	}
	fakeOf(st).Advance(100 * time.Millisecond)
	if err := c.HSet([]byte("k"), []byte("f"), []byte("v")); err != nil {
		t.Fatalf("HSet over expired flat key: %v", err)
	}
	if _, err := c.Get([]byte("k")); err != client.ErrNotFound {
		t.Fatalf("Get after reaping composite: %v, want ErrNotFound", err)
	}
}

// TestObjReapedKeyNotServedFromCache: a flat key whose TTL has lapsed is
// masked until its reap clears the deadline, and the reap's commit drops the
// key from the hot-key cache before it returns, so a GET racing the reap is
// never served the deleted value from the cache. The reap is the expirer's:
// its timer fires on the goroutine that advances the clock past the TTL.
func TestObjReapedKeyNotServedFromCache(t *testing.T) {
	clk := newFake()
	st, err := kv.New(kv.Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	o, err := obj.Attach(st, obj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	srv := New(st, Config{Cache: CacheConfig{Enable: true}, Obj: o})
	key := []byte("k")
	const rounds = 5000
	bad := 0
	for range rounds {
		if err := st.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, status, msg := srv.get(nil, key); status != wire.StatusOK { // fills
			t.Fatalf("GET before expiry: status %d %s", status, msg)
		}
		deadline := clk.Now().Add(time.Millisecond)
		if err := o.Expire(key, 1); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			clk.Advance(2 * time.Millisecond)
		}()
		// A GET issued once the clock reads the deadline must not be
		// served, whether the reap has started, is running or is done.
		served := false
		for reaping := true; reaping; {
			select {
			case <-done:
				reaping = false
			default:
			}
			lapsed := !clk.Now().Before(deadline)
			if _, status, _ := srv.get(nil, key); lapsed && status == wire.StatusOK {
				served = true
			}
		}
		if served {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rounds served a reaped key's deleted value", bad, rounds)
	}
}

// TestObjFailoverMidComposite is the replication contract for typed
// objects: composite records ride the per-partition LSN stream, and a
// failover at ANY acked point — here a hard primary kill under a stream of
// HSETs — never leaves the promoted replica serving a half-applied object.
// A field record whose header never shipped is invisible to every reader, and
// promotion sweeps it — under live writers, so per name and under its lock.
func TestObjFailoverMidComposite(t *testing.T) {
	pst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	pNode, err := repl.NewNode(pst, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	pobj, err := obj.Attach(pst, obj.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer pobj.Close()
	psrv := New(pst, Config{Repl: pNode, Obj: pobj})
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
	robj, err := obj.Attach(rst, obj.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer robj.Close()
	_, _, rAddr := startServerOn(t, Config{Repl: rNode, Obj: robj}, rst)
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

	// Hammer composite writes from several goroutines so composites are
	// genuinely in flight when the primary dies; kill it with a too-short
	// drain. The failover wrapper retries each interrupted HSET against the
	// promoted replica (at-least-once; HSET is idempotent per field).
	var wg sync.WaitGroup
	var hammerErr atomic.Value
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := []byte(fmt.Sprintf("obj:%d", (g*7+i)%8))
				field := []byte(fmt.Sprintf("f%d", i%5))
				if err := fo.HSet(name, field, []byte(fmt.Sprintf("v%d-%d", g, i))); err != nil {
					hammerErr.Store(fmt.Errorf("writer %d op %d: %w", g, i, err))
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	psrv.Shutdown(ctx)
	cancel()
	<-pDone
	pNode.Close()
	time.Sleep(100 * time.Millisecond) // writers fail over and keep going
	close(stop)
	wg.Wait()
	if e := hammerErr.Load(); e != nil {
		t.Fatalf("hammer: %v", e)
	}
	if fo.Addr() != rAddr {
		t.Fatalf("failover client on %s, want the promoted replica %s", fo.Addr(), rAddr)
	}
	select {
	case <-applierDone:
	case <-time.After(5 * time.Second):
		t.Fatal("applier kept running after promotion")
	}
	if !robj.Active() {
		t.Fatal("promotion did not activate the object layer")
	}

	// The promoted store must hold a perfectly consistent object graph: every field a header lists has its record,
	// every field record is listed by its header.
	headers := map[string][]string{} // name → fields
	fields := map[string][]string{}
	rst.Range(func(k, v []byte) bool {
		tag, nb, ok := obj.ParseInternalKey(k)
		if !ok {
			return true
		}
		switch name := string(nb); tag {
		case 'H':
			// Header layout: [type][u32 count][(u16 len + elem)*].
			c := bytes.Clone(v[5:])
			for n := binary.LittleEndian.Uint32(v[1:5]); n > 0; n-- {
				l := binary.LittleEndian.Uint16(c)
				headers[name] = append(headers[name], string(c[2:2+l]))
				c = c[2+l:]
			}
		case 'h':
			fields[name] = append(fields[name], string(k[4+len(nb):]))
		}
		return true
	})
	if len(headers) == 0 {
		t.Fatal("the promoted store holds no object header: the check below proves nothing")
	}
	for name, hf := range headers {
		if len(hf) != len(fields[name]) {
			t.Fatalf("object %q: header lists %v, records hold %v", name, hf, fields[name])
		}
		have := map[string]bool{}
		for _, f := range fields[name] {
			have[f] = true
		}
		for _, f := range hf {
			if !have[f] {
				t.Fatalf("object %q: header lists %q but its record is missing", name, f)
			}
		}
	}
	for name := range fields {
		if _, ok := headers[name]; !ok {
			t.Fatalf("object %q: field records without a header", name)
		}
	}

	// And the promoted node serves typed reads and writes.
	if v, err := fo.HGet([]byte("obj:0"), []byte("f0")); err != nil || len(v) == 0 {
		t.Fatalf("post-failover HGet: %q, %v", v, err)
	}
	if err := fo.HSet([]byte("obj:new"), []byte("f"), []byte("v")); err != nil {
		t.Fatalf("post-failover HSet: %v", err)
	}
}

// Satellite regression: a FENCED primary (StatusReadOnly on writes) is a
// transient, not a terminal condition — the failover wrapper must keep
// retrying with backoff until the fence lifts, instead of giving up after
// one re-election that re-adopts the same fenced node.
func TestFailoverRetriesFencedPrimary(t *testing.T) {
	pst, err := kv.New(replKVOpts())
	if err != nil {
		t.Fatal(err)
	}
	pNode, err := repl.NewNode(pst, repl.Primary)
	if err != nil {
		t.Fatal(err)
	}
	defer pNode.Close()
	_, _, pAddr := startServerOn(t, Config{Repl: pNode, ReplFenceLease: 10 * time.Millisecond}, pst)

	fo, err := client.DialFailover([]string{pAddr}, client.Options{
		DialTimeout: 200 * time.Millisecond,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fo.Close() })

	// Let the fence engage (no replica has ever subscribed).
	if fakeOf(pst).Advance(10*time.Millisecond + 1); !pNode.Fenced() {
		t.Fatal("primary never fenced")
	}

	// Lift the fence from a delayed replica — well inside the wrapper's
	// retry budget but long after its first (and, before the fix, only)
	// retry would have failed.
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
		time.Sleep(150 * time.Millisecond)
		applierDone <- rNode.RunApplier(repl.ApplierConfig{Addr: pAddr})
	}()
	t.Cleanup(func() {
		rNode.Close()
		select {
		case err := <-applierDone:
			if err != nil {
				t.Errorf("applier: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("applier did not stop")
		}
	})

	// One call, issued against the fenced primary: it must ride the retry
	// loop through the fence lift and succeed.
	if err := fo.Put([]byte("k"), []byte("v")); err != nil {
		if errors.Is(err, client.ErrReadOnly) {
			t.Fatalf("Put returned ErrReadOnly terminally; the fence was transient: %v", err)
		}
		t.Fatalf("Put against fenced primary: %v", err)
	}
	if v, err := fo.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after fence lift: %q, %v", v, err)
	}
}
