package obj

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"rntree/kv"
)

// fakeClock is a settable millisecond clock shared by a test's layers.
type fakeClock struct{ now atomic.Int64 }

func (c *fakeClock) fn() func() int64 { return c.now.Load }
func (c *fakeClock) advance(ms int64) { c.now.Add(ms) }

func newKV(t testing.TB) *kv.Store {
	t.Helper()
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, ChunkSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func attach(t testing.TB, st *kv.Store, clk *fakeClock) *Store {
	t.Helper()
	o, err := Attach(st, Options{Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// TestHSetPersistCount pins HSET's NVM cost in persist instructions, which
// are exact where wall-clock numbers on a shared host are not: adding a
// fresh field costs exactly its four single-record commits — intent, field,
// header, intent tombstone — and overwriting a listed field exactly one
// Put, each measured on a twin store running those commits bare.
func TestHSetPersistCount(t *testing.T) {
	persists := func(st *kv.Store) uint64 { return st.Stats().Persists }
	st, twin := newKV(t), newKV(t)
	o := attach(t, st, &fakeClock{})
	name, field := []byte("user:1"), []byte("name")
	fk, hk, ik := subKey(tagField, name, field), headerKey(name), intentKey(name)
	hv := header{typ: TypeHash, elems: [][]byte{field}}.encode()
	intent := encodeIntent([]subOp{
		{kind: subPut, key: fk, val: []byte("ada"), prevKind: subDel},
		{kind: subPut, key: hk, val: hv, prevKind: subDel},
	})

	before := persists(st)
	if err := o.HSet(name, field, []byte("ada")); err != nil {
		t.Fatal(err)
	}
	got := persists(st) - before
	before = persists(twin)
	for _, err := range []error{twin.Put(ik, intent), twin.Put(fk, []byte("ada")), twin.Put(hk, hv), twin.Delete(ik)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := persists(twin) - before; got != want {
		t.Errorf("fresh-field HSET issued %d persists, its four single-record commits issue %d", got, want)
	}

	before = persists(st)
	if err := o.HSet(name, field, []byte("grace")); err != nil {
		t.Fatal(err)
	}
	got = persists(st) - before
	before = persists(twin)
	if err := twin.Put(fk, []byte("grace")); err != nil {
		t.Fatal(err)
	}
	if want := persists(twin) - before; got != want {
		t.Errorf("existing-field HSET issued %d persists, one Put issues %d", got, want)
	}
}

func TestHashOps(t *testing.T) {
	st := newKV(t)
	o := attach(t, st, &fakeClock{})

	if err := o.HSet([]byte("user:1"), []byte("name"), []byte("ada")); err != nil {
		t.Fatal(err)
	}
	if err := o.HSet([]byte("user:1"), []byte("lang"), []byte("go")); err != nil {
		t.Fatal(err)
	}
	v, err := o.HGet([]byte("user:1"), []byte("name"))
	if err != nil || string(v) != "ada" {
		t.Fatalf("HGet name = %q, %v", v, err)
	}
	// Overwrite an existing field (single-record path).
	if err := o.HSet([]byte("user:1"), []byte("name"), []byte("grace")); err != nil {
		t.Fatal(err)
	}
	if v, _ = o.HGet([]byte("user:1"), []byte("name")); string(v) != "grace" {
		t.Fatalf("overwritten HGet = %q", v)
	}
	if _, err := o.HGet([]byte("user:1"), []byte("absent")); err != kv.ErrNotFound {
		t.Fatalf("absent field: %v", err)
	}
	// Wrong-type guards.
	if err := o.SAdd([]byte("user:1"), []byte("x")); err != ErrWrongType {
		t.Fatalf("SAdd on hash: %v", err)
	}
	if _, err := o.SMembers([]byte("user:1")); err != ErrWrongType {
		t.Fatalf("SMembers on hash: %v", err)
	}
	// Deleting the last field removes the object header.
	if err := o.HDel([]byte("user:1"), []byte("lang")); err != nil {
		t.Fatal(err)
	}
	if err := o.HDel([]byte("user:1"), []byte("name")); err != nil {
		t.Fatal(err)
	}
	if st.Has(headerKey([]byte("user:1"))) {
		t.Fatal("empty hash left its header behind")
	}
	if err := o.HDel([]byte("user:1"), []byte("name")); err != kv.ErrNotFound {
		t.Fatalf("HDel on absent object: %v", err)
	}
	// No intent record may survive a healthy run.
	st.Range(func(k, _ []byte) bool {
		if len(k) >= 2 && k[0] == NSByte && k[1] == tagIntent {
			t.Fatalf("leaked intent record %q", k)
		}
		return true
	})
}

func TestSetOps(t *testing.T) {
	st := newKV(t)
	o := attach(t, st, &fakeClock{})

	for _, m := range []string{"a", "b", "c", "b"} { // dup add is a no-op
		if err := o.SAdd([]byte("tags"), []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := o.SMembers([]byte("tags"))
	if err != nil || len(ms) != 3 {
		t.Fatalf("SMembers = %d members, %v", len(ms), err)
	}
	if err := o.SRem([]byte("tags"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := o.SRem([]byte("tags"), []byte("b")); err != kv.ErrNotFound {
		t.Fatalf("double SRem: %v", err)
	}
	if ms, _ = o.SMembers([]byte("tags")); len(ms) != 2 {
		t.Fatalf("after SRem: %d members", len(ms))
	}
	if _, err := o.HGet([]byte("tags"), []byte("a")); err != kv.ErrNotFound {
		t.Fatalf("HGet on set: %v", err)
	}
	if ms, err = o.SMembers([]byte("absent")); err != nil || len(ms) != 0 {
		t.Fatalf("SMembers absent = %v, %v", ms, err)
	}
}

func TestExpireTTLPersist(t *testing.T) {
	st := newKV(t)
	clk := &fakeClock{}
	o := attach(t, st, clk)

	if err := st.Put([]byte("flat"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("absent"), 100); err != kv.ErrNotFound {
		t.Fatalf("Expire absent: %v", err)
	}
	if ttl, err := o.TTL([]byte("flat")); err != nil || ttl != -1 {
		t.Fatalf("TTL without deadline = %d, %v", ttl, err)
	}
	if err := o.Expire([]byte("flat"), 500); err != nil {
		t.Fatal(err)
	}
	clk.advance(100)
	if ttl, err := o.TTL([]byte("flat")); err != nil || ttl != 400 {
		t.Fatalf("TTL = %d, %v", ttl, err)
	}
	if err := o.Persist([]byte("flat")); err != nil {
		t.Fatal(err)
	}
	if ttl, err := o.TTL([]byte("flat")); err != nil || ttl != -1 {
		t.Fatalf("TTL after Persist = %d, %v", ttl, err)
	}
	clk.advance(1000)
	if o.Expired([]byte("flat")) {
		t.Fatal("persisted key expired anyway")
	}

	// Expire an object, let it lapse: reads mask it immediately.
	if err := o.HSet([]byte("sess"), []byte("tok"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("sess"), 50); err != nil {
		t.Fatal(err)
	}
	clk.advance(51)
	if _, err := o.HGet([]byte("sess"), []byte("tok")); err != kv.ErrNotFound {
		t.Fatalf("expired HGet: %v", err)
	}
	if _, err := o.TTL([]byte("sess")); err != kv.ErrNotFound {
		t.Fatalf("expired TTL: %v", err)
	}
	if o.Stats().LazyExpiries == 0 {
		t.Fatal("lazy expiry not counted")
	}
	// A new HSet on the expired name reaps the corpse and starts fresh.
	if err := o.HSet([]byte("sess"), []byte("new"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.HGet([]byte("sess"), []byte("tok")); err != kv.ErrNotFound {
		t.Fatalf("old field resurrected: %v", err)
	}
	if v, err := o.HGet([]byte("sess"), []byte("new")); err != nil || string(v) != "y" {
		t.Fatalf("fresh field = %q, %v", v, err)
	}
}

func TestExpireTickReaps(t *testing.T) {
	st := newKV(t)
	clk := &fakeClock{}
	o := attach(t, st, clk)

	if err := st.Put([]byte("flat"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := o.HSet([]byte("h"), []byte(fmt.Sprintf("f%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Expire([]byte("flat"), 10); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("h"), 20); err != nil {
		t.Fatal(err)
	}
	if n := o.ExpireTick(); n != 0 {
		t.Fatalf("premature reap of %d keys", n)
	}
	clk.advance(100)
	var invalidated [][]byte
	o.SetInvalidate(func(name []byte) {
		invalidated = append(invalidated, append([]byte(nil), name...))
	})
	if n := o.ExpireTick(); n != 2 {
		t.Fatalf("ExpireTick reaped %d, want 2", n)
	}
	if len(invalidated) != 2 {
		t.Fatalf("invalidate hook saw %d names", len(invalidated))
	}
	if _, err := st.Get([]byte("flat")); err != kv.ErrNotFound {
		t.Fatalf("flat key survived reap: %v", err)
	}
	// Every namespace record of the object must be gone.
	st.Range(func(k, _ []byte) bool {
		if IsInternalKey(k) {
			t.Fatalf("reap left namespace record %q", k)
		}
		return true
	})
	if o.Stats().Reaps != 2 {
		t.Fatalf("Reaps = %d", o.Stats().Reaps)
	}
}

// TestIntentRollForward simulates a crash between a composite's commit
// point and its completion: the intent record is durable, only a prefix of
// its sub-ops applied. Attach must roll the whole composite forward.
func TestIntentRollForward(t *testing.T) {
	st := newKV(t)
	clk := &fakeClock{}
	o := attach(t, st, clk)

	name := []byte("user:9")
	h := header{typ: TypeHash, elems: [][]byte{[]byte("f")}}
	ops := []subOp{
		{kind: subPut, key: subKey(tagField, name, []byte("f")), val: []byte("v"), prevKind: subDel},
		{kind: subPut, key: headerKey(name), val: h.encode(), prevKind: subDel},
	}
	if err := st.Put(intentKey(name), encodeIntent(ops)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(ops[0].key, ops[0].val); err != nil { // first sub-op only
		t.Fatal(err)
	}
	o.Close()

	st2, err := kv.Open(st.Snapshot(), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Attach(st2, Options{Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if o2.Stats().IntentsRolled != 1 {
		t.Fatalf("IntentsRolled = %d", o2.Stats().IntentsRolled)
	}
	if v, err := o2.HGet(name, []byte("f")); err != nil || string(v) != "v" {
		t.Fatalf("rolled-forward field = %q, %v", v, err)
	}
	if !st2.Has(headerKey(name)) {
		t.Fatal("header not rolled forward")
	}
	if st2.Has(intentKey(name)) {
		t.Fatal("intent survived recovery")
	}
}

// TestOversizedCompositeFailsClean: when the composite's images outgrow the
// store's record limit, the intent put itself is what fails — before the
// commit point, so nothing changed and no rollback is needed.
func TestOversizedCompositeFailsClean(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Attach(st, Options{Clock: (&fakeClock{}).fn()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	name := []byte("big")
	var failed []byte
	for i := 0; i < 200; i++ {
		f := []byte(fmt.Sprintf("field-%03d", i))
		if err := o.HSet(name, f, []byte("v")); err != nil {
			failed = f
			break
		}
	}
	if failed == nil {
		t.Fatal("header never outgrew the chunk")
	}
	if _, err := o.HGet(name, failed); err != kv.ErrNotFound {
		t.Fatalf("failed composite left its field visible: %v", err)
	}
	h, found, err := o.readHeader(name)
	if err != nil || !found {
		t.Fatalf("header gone after failed composite: %v", err)
	}
	if h.index(failed) >= 0 {
		t.Fatal("failed field listed in header")
	}
	// Every field the header lists must still resolve.
	for _, f := range h.elems {
		if _, err := o.HGet(name, f); err != nil {
			t.Fatalf("surviving field %q unreadable: %v", f, err)
		}
	}
	if st.Has(intentKey(name)) {
		t.Fatal("intent survived failed composite")
	}
}

// TestSubOpFailureRollsBack exercises the undo path directly: a composite
// whose last sub-op fails deterministically mid-apply (empty key) must
// restore the applied prefix from the undo images and remove the intent.
func TestSubOpFailureRollsBack(t *testing.T) {
	st := newKV(t)
	o := attach(t, st, &fakeClock{})

	if err := st.Put([]byte("k1"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put([]byte("k2"), []byte("keep")); err != nil {
		t.Fatal(err)
	}
	name := []byte("tx")
	err := o.commit(name, []subOp{
		{kind: subPut, key: []byte("k1"), val: []byte("new")},
		{kind: subDel, key: []byte("k2")},
		{kind: subPut, key: nil, val: []byte("boom")}, // ErrEmptyKey mid-apply
	})
	if err == nil {
		t.Fatal("composite with invalid sub-op succeeded")
	}
	if v, _ := st.Get([]byte("k1")); string(v) != "old" {
		t.Fatalf("k1 not rolled back: %q", v)
	}
	if v, _ := st.Get([]byte("k2")); string(v) != "keep" {
		t.Fatalf("k2 not restored: %q", v)
	}
	if st.Has(intentKey(name)) {
		t.Fatal("intent survived rollback")
	}
	if o.Stats().IntentsUndone != 1 {
		t.Fatalf("IntentsUndone = %d", o.Stats().IntentsUndone)
	}
	// The recovery-side fallback: the same unapplyable intent rolled back at
	// resolve time instead of wedging recovery.
	if err := st.Put(intentKey(name), encodeIntent([]subOp{
		{kind: subPut, key: []byte("k1"), val: []byte("newer"), prevKind: subPut, prevVal: []byte("old")},
		{kind: subPut, key: nil, val: []byte("boom"), prevKind: subDel},
	})); err != nil {
		t.Fatal(err)
	}
	if err := o.resolveIntent(intentKey(name)); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get([]byte("k1")); string(v) != "old" {
		t.Fatalf("recovery rollback left k1 = %q", v)
	}
	if st.Has(intentKey(name)) {
		t.Fatal("intent survived recovery rollback")
	}
}

// TestExpiredKeyNeverResurrects (satellite): a key whose TTL lapsed but was
// never reaped must stay invisible across a crash and reopen — the expiry
// record is durable, so recovery rebuilds the mask before any read.
func TestExpiredKeyNeverResurrects(t *testing.T) {
	st := newKV(t)
	clk := &fakeClock{}
	o := attach(t, st, clk)

	if err := st.Put([]byte("ghost"), []byte("boo")); err != nil {
		t.Fatal(err)
	}
	if err := o.HSet([]byte("gobj"), []byte("f"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("ghost"), 10); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("gobj"), 10); err != nil {
		t.Fatal(err)
	}
	clk.advance(1000) // lapsed, NOT reaped
	o.Close()

	st2, err := kv.Open(st.Snapshot(), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Attach(st2, Options{Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	if !o2.Expired([]byte("ghost")) {
		t.Fatal("expired flat key resurrected after reopen")
	}
	if _, err := o2.HGet([]byte("gobj"), []byte("f")); err != kv.ErrNotFound {
		t.Fatalf("expired object resurrected after reopen: %v", err)
	}
	if _, err := o2.TTL([]byte("ghost")); err != kv.ErrNotFound {
		t.Fatalf("expired TTL visible after reopen: %v", err)
	}
	// Reap, crash again mid-nothing, reopen: still gone, reaped exactly once.
	if n := o2.ExpireTick(); n != 2 {
		t.Fatalf("post-reopen reap = %d, want 2", n)
	}
	st3, err := kv.Open(st2.Snapshot(), kv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o3, err := Attach(st3, Options{Clock: clk.fn()})
	if err != nil {
		t.Fatal(err)
	}
	defer o3.Close()
	if _, err := st3.Get([]byte("ghost")); err != kv.ErrNotFound {
		t.Fatalf("reaped key resurrected: %v", err)
	}
	if n := o3.ExpireTick(); n != 0 {
		t.Fatalf("double reap after reopen: %d", n)
	}
}

// TestExpirerVsCompactionRace (satellite): a key expiring while its
// partition compacts is reaped exactly once, and concurrent expirer ticks never
// double-reap.
func TestExpirerVsCompactionRace(t *testing.T) {
	st := newKV(t)
	clk := &fakeClock{}
	o := attach(t, st, clk)

	// Churn enough garbage that Compact has real work.
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("churn-%03d", i%20))
		if err := st.Put(k, bytes.Repeat([]byte{byte(i)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put([]byte("doomed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("doomed"), 5); err != nil {
		t.Fatal(err)
	}
	clk.advance(100)

	var wg sync.WaitGroup
	reapTotal := atomic.Int64{}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				reapTotal.Add(int64(o.ExpireTick()))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if n := reapTotal.Load(); n != 1 {
		t.Fatalf("key reaped %d times, want exactly 1", n)
	}
	if o.Stats().Reaps != 1 {
		t.Fatalf("Reaps = %d", o.Stats().Reaps)
	}
	if _, err := st.Get([]byte("doomed")); err != kv.ErrNotFound {
		t.Fatalf("doomed key survived: %v", err)
	}
	// Compacted store still recovers the churn keys.
	for i := 180; i < 200; i++ {
		k := []byte(fmt.Sprintf("churn-%03d", i%20))
		if _, err := st.Get(k); err != nil {
			t.Fatalf("churn key %q lost: %v", k, err)
		}
	}
}

// TestReplicaMasksButNeverReaps: a ReadOnly layer masks expired keys yet
// leaves every record alone, and Activate rolls shipped intents forward.
func TestReplicaMasksButNeverReaps(t *testing.T) {
	st := newKV(t)
	clk := &fakeClock{}
	o, err := Attach(st, Options{Clock: clk.fn(), ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Simulate the stream shipping an expiry record.
	deadline := clk.now.Load() + 10
	var ev [8]byte
	for i := 0; i < 8; i++ {
		ev[i] = byte(uint64(deadline) >> (8 * i))
	}
	if err := st.Put(expiryKey([]byte("k")), ev[:]); err != nil {
		t.Fatal(err)
	}
	o.OnReplApply(kv.ReplPut, expiryKey([]byte("k")), ev[:])
	clk.advance(100)
	if !o.Expired([]byte("k")) {
		t.Fatal("replica failed to mask expired key")
	}
	if n := o.ExpireTick(); n != 0 {
		t.Fatalf("replica reaped %d keys", n)
	}
	if !st.Has([]byte("k")) {
		t.Fatal("replica deleted a record")
	}
	// A half-applied composite shipped before failover: Activate completes it.
	name := []byte("mid")
	h := header{typ: TypeHash, elems: [][]byte{[]byte("f")}}
	ops := []subOp{
		{kind: subPut, key: subKey(tagField, name, []byte("f")), val: []byte("v"), prevKind: subDel},
		{kind: subPut, key: headerKey(name), val: h.encode(), prevKind: subDel},
	}
	if err := st.Put(intentKey(name), encodeIntent(ops)); err != nil {
		t.Fatal(err)
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	if v, err := o.HGet(name, []byte("f")); err != nil || string(v) != "v" {
		t.Fatalf("post-Activate HGet = %q, %v", v, err)
	}
	if n := o.ExpireTick(); n != 1 { // now primary: the lapsed key reaps
		t.Fatalf("post-Activate reap = %d", n)
	}
}
