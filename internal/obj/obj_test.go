package obj

import (
	"bytes"
	"errors"
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

// unlisted returns every record in the object namespace that the API does
// not account for: a field record its header does not list, a set member
// record (nothing writes those any more), a record of the retired log, an
// expiry record under a name with neither flat key nor header.
func unlisted(st *kv.Store) []string {
	var out []string
	st.Range(func(k, _ []byte) bool {
		tag, name, ok := ParseInternalKey(k)
		if !ok {
			if IsInternalKey(k) {
				out = append(out, string(k))
			}
			return true
		}
		switch tag {
		case tagHeader:
		case tagField:
			hv, _ := st.Get(headerKey(name))
			if !headerLists(hv, TypeHash, k[4+len(name):]) {
				out = append(out, string(k))
			}
		case tagExpiry:
			if !st.Has(name) && !st.Has(headerKey(name)) {
				out = append(out, string(k))
			}
		default:
			out = append(out, string(k))
		}
		return true
	})
	return out
}

// TestHSetPersistCount pins HSET's NVM cost in persist instructions, which
// are exact where wall-clock numbers on a shared host are not: adding a
// fresh field costs exactly its TWO single-record commits — the field
// record, then the header that lists it (the commit point; there is no
// intent record before them and no tombstone after) — and overwriting a
// listed field exactly one Put, each measured on a twin store running those
// commits bare.
func TestHSetPersistCount(t *testing.T) {
	persists := func(st *kv.Store) uint64 { return st.Stats().Persists }
	st, twin := newKV(t), newKV(t)
	o := attach(t, st, &fakeClock{})
	name, field := []byte("user:1"), []byte("name")
	fk, hk := fieldKey(name, field), headerKey(name)
	hv := header{typ: TypeHash, elems: [][]byte{field}}.encode()

	before := persists(st)
	if err := o.HSet(name, field, []byte("ada")); err != nil {
		t.Fatal(err)
	}
	got := persists(st) - before
	before = persists(twin)
	for _, err := range []error{twin.Put(fk, []byte("ada")), twin.Put(hk, hv)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := persists(twin) - before; got != want {
		t.Errorf("fresh-field HSET issued %d persists, its two single-record commits issue %d", got, want)
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
	// A healthy run leaves nothing for the sweep.
	if u := unlisted(st); len(u) != 0 {
		t.Fatalf("unlisted records after a healthy run: %q", u)
	}
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
	// A set is its header: two members left, one record on media.
	if n := st.Len(); n != 1 {
		t.Fatalf("set of two members holds %d records, want its header alone", n)
	}
	for _, m := range []string{"a", "c"} {
		if err := o.SRem([]byte("tags"), []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("emptied set left %d records", n)
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

// TestOversizedCompositeFailsClean: when the header outgrows the store's
// record limit, the composite's SECOND write is what fails. The field record
// written first was never listed, so nothing changed for any reader, and the
// failed HSET takes it back.
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
			if !errors.Is(err, kv.ErrTooLarge) {
				t.Fatalf("HSet %q: %v, want ErrTooLarge", f, err)
			}
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
	fields, err := o.HKeys(name)
	if err != nil || len(fields) == 0 {
		t.Fatalf("header gone after failed composite: %d fields, %v", len(fields), err)
	}
	// Every field the header lists must still resolve.
	for _, f := range fields {
		if bytes.Equal(f, failed) {
			t.Fatal("failed field listed in header")
		}
		if _, err := o.HGet(name, f); err != nil {
			t.Fatalf("surviving field %q unreadable: %v", f, err)
		}
	}
	if st.Has(fieldKey(name, failed)) {
		t.Fatal("failed composite left its field record behind")
	}
	if o.Stats().IntentsUndone != 1 {
		t.Fatalf("IntentsUndone = %d", o.Stats().IntentsUndone)
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
// leaves every record alone, and Activate sweeps what a failover cut short.
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
	// A composite the failover cut short — the field record shipped, the
	// header that would list it did not: invisible while a replica, and
	// Activate sweeps it.
	name := []byte("mid")
	if err := st.Put(fieldKey(name, []byte("f")), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := o.HGet(name, []byte("f")); err != kv.ErrNotFound {
		t.Fatalf("replica HGet of an unlisted field: %v", err)
	}
	if err := o.Activate(); err != nil {
		t.Fatal(err)
	}
	if u := unlisted(st); len(u) != 0 {
		t.Fatalf("Activate left unlisted records: %q", u)
	}
	if n := o.ExpireTick(); n != 1 { // now primary: the lapsed key reaps
		t.Fatalf("post-Activate reap = %d", n)
	}
}
