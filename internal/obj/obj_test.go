package obj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rntree/internal/clock"
	"rntree/internal/race"
	"rntree/kv"
)

// newClock is a test's fake clock, reading the Unix epoch until advanced.
func newClock() *clock.Fake { return clock.NewFake(time.UnixMilli(0)) }

// fakeOf returns st's clock, which a test built as a fake.
func fakeOf(st *kv.Store) *clock.Fake { return st.Clock().(*clock.Fake) }

func newKV(t testing.TB) *kv.Store {
	t.Helper()
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, ChunkSize: 1 << 14, Clock: newClock()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func attach(t testing.TB, st *kv.Store) *Store {
	t.Helper()
	o, err := Attach(st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	return o
}

// unlisted returns every record in the object namespace that the API does
// not account for: a field record its header does not list, a record of a
// kind nothing writes, an expiry record under a name with neither flat key
// nor header.
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
// fresh field costs exactly ONE commit of its two records — the field record
// and the header that lists it, co-located in the name's partition and
// persisted as one span (there is no intent record before them and no
// tombstone after) — and overwriting a listed field exactly one Put, each
// measured on a twin store running those commits bare.
func TestHSetPersistCount(t *testing.T) {
	persists := func(st *kv.Store) uint64 { return st.Stats().Persists }
	st, twin := newKV(t), newKV(t)
	o := attach(t, st)
	name, field := []byte("user:1"), []byte("name")
	fk, hk := fieldKey(name, field), headerKey(name)
	hv := withElem(nil, TypeHash, field)

	before := persists(st)
	if err := o.HSet(name, field, []byte("ada")); err != nil {
		t.Fatal(err)
	}
	got := persists(st) - before
	before = persists(twin)
	muts := []kv.Mutation{{Key: fk, Val: []byte("ada")}, {Key: hk, Val: hv}}
	twin.Commit(muts)
	for _, m := range muts {
		if m.Err != nil {
			t.Fatal(m.Err)
		}
	}
	if want := persists(twin) - before; got != want {
		t.Errorf("fresh-field HSET issued %d persists, one Commit of field+header issues %d", got, want)
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

// TestHSetHGetAllocs pins the typed hot path's allocations at most where they
// were before every write became one kv step: a fresh HSET 6, an overwrite
// of a field of an eight-field hash 9, an HGET 6 (the counts of the build
// with a stripe lock per name and two commits per fresh field). The step
// itself allocates nothing (kv's TestCommitAllocs).
func TestHSetHGetAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	o := attach(t, newKV(t))
	name, field, val := []byte("user:1"), []byte("f3"), []byte("value")
	for i := 0; i < 8; i++ {
		hset(t, o, "user:1", fmt.Sprintf("f%d", i), "v")
	}
	names := make([][]byte, 1000)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("n%d", i))
	}
	next := 0
	for _, c := range []struct {
		what string
		max  float64
		f    func() error
	}{
		{"fresh HSET", 6, func() error { next++; return o.HSet(names[next], field, val) }},
		{"HSET overwrite", 9, func() error { return o.HSet(name, field, val) }},
		{"HGET", 6, func() error { _, err := o.HGet(name, field); return err }},
	} {
		if got := testing.AllocsPerRun(200, func() {
			if err := c.f(); err != nil {
				t.Fatal(err)
			}
		}); got > c.max {
			t.Errorf("%s: %v allocs/op, want <= %v", c.what, got, c.max)
		}
	}
}

// TestObjectCoLocated: every record of an object — header, fields, expiry —
// and the flat key of its name live in one partition, PartitionOf(name).
func TestObjectCoLocated(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 32 << 20, ChunkSize: 1 << 14, Partitions: 8, Clock: newClock()})
	if err != nil {
		t.Fatal(err)
	}
	o := attach(t, st)
	for n := 0; n < 32; n++ {
		name := fmt.Sprintf("obj:%d", n)
		for f := 0; f < 3; f++ {
			hset(t, o, name, fmt.Sprintf("field-%d", f), "v")
		}
		if err := st.Put([]byte("flat:"+name), []byte("v")); err != nil {
			t.Fatal(err)
		}
		for _, e := range []string{name, "flat:" + name} {
			if err := o.Expire([]byte(e), 1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	records, parts := 0, map[int]bool{}
	st.Range(func(k, _ []byte) bool {
		_, name, ok := ParseInternalKey(k)
		if !ok {
			return true
		}
		records++
		if got, want := st.PartitionOf(k), st.PartitionOf(name); got != want {
			t.Errorf("%q lives in partition %d, its name %q in %d", k, got, name, want)
		}
		parts[st.PartitionOf(k)] = true
		return true
	})
	if records != 32*(1+3+1+1) || len(parts) < 2 {
		t.Fatalf("%d records over %d partitions: the test proves nothing", records, len(parts))
	}
}

// TestReplicaCatchUpObjectPrefix: a replica catching up from a primary's
// backlog — partition by partition, one record applied at a time — never
// holds a header that lists a field it lacks. Every record of an object lives
// in its name's partition, so the backlog replays an object in its LSN order.
// Compaction narrows this: it keeps a key's newest record only, so a field
// overwritten after its header's last write replays after that header, and a
// cut between the two shows the header ahead of the field. That field is the
// only one a cut may miss, and catch-up still converges.
func TestReplicaCatchUpObjectPrefix(t *testing.T) {
	opts := kv.Options{ArenaSize: 16 << 20, ChunkSize: 1 << 14, Partitions: 4, Clock: newClock()}
	pst, err := kv.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	pobj := attach(t, pst)
	var names [][]byte
	for n := 0; n < 8; n++ {
		name := fmt.Sprintf("obj:%d", n)
		names = append(names, []byte(name))
		for f := 0; f < 4; f++ {
			hset(t, pobj, name, fmt.Sprintf("f%d", f), fmt.Sprintf("v%d.%d", n, f))
		}
		if err := pobj.HDel([]byte(name), []byte("f1")); err != nil {
			t.Fatal(err)
		}
		hset(t, pobj, name, "f0", fmt.Sprintf("v%d.0'", n))
	}

	// catchUp replays the backlog into a fresh replica and returns how many
	// cuts listed a field the replica lacked, failing on any but mayLag.
	catchUp := func(mayLag string) (ahead int) {
		rst, err := kv.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		robj, err := Attach(rst, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		defer robj.Close()
		applied := 0
		for part := 0; part < pst.Partitions(); part++ {
			err := pst.ReplBacklog(part, 0, func(lsn uint64, kind uint8, key, val []byte) bool {
				if err := rst.ReplApply(part, lsn, kind, key, val); err != nil {
					t.Fatalf("apply partition %d lsn %d: %v", part, lsn, err)
				}
				robj.OnReplApply(kind, key, val)
				applied++
				for _, name := range names {
					fields, err := robj.HKeys(name)
					if err != nil {
						t.Fatalf("after %d records: HKeys %s: %v", applied, name, err)
					}
					for _, f := range fields {
						if _, err := robj.HGet(name, f); err != nil {
							if string(f) != mayLag {
								t.Fatalf("after %d records: %s lists %s, HGet: %v", applied, name, f, err)
							}
							ahead++
						}
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			for f := 0; f < 4; f++ {
				field := []byte(fmt.Sprintf("f%d", f))
				want, werr := pobj.HGet(name, field)
				got, gerr := robj.HGet(name, field)
				if string(got) != string(want) || gerr != werr {
					t.Fatalf("%s.%s: replica %q, %v; primary %q, %v", name, field, got, gerr, want, werr)
				}
			}
		}
		return ahead
	}
	catchUp("")
	if err := pst.Compact(); err != nil {
		t.Fatal(err)
	}
	if catchUp("f0") == 0 {
		t.Fatal("after compaction no cut showed a header ahead of its overwritten field: DESIGN §15.4's caveat no longer holds, narrow it")
	}
}

// TestReservedNames: no typed verb takes a name inside the reserved
// namespace. Such a name is, as a flat key, another name's record — the
// header key of an existing object here — and answering for it would expose
// that record (TTL of it read -1, the object's own answer).
func TestReservedNames(t *testing.T) {
	st := newKV(t)
	o := attach(t, st)
	hset(t, o, "foo", "f", "v")
	reserved := headerKey([]byte("foo"))
	for _, c := range []struct {
		verb string
		call func() error
	}{
		{"HSET", func() error { return o.HSet(reserved, []byte("f"), []byte("v")) }},
		{"HGET", func() error { _, err := o.HGet(reserved, []byte("f")); return err }},
		{"HDEL", func() error { return o.HDel(reserved, []byte("f")) }},
		{"SADD", func() error { return o.SAdd(reserved, []byte("m")) }},
		{"SREM", func() error { return o.SRem(reserved, []byte("m")) }},
		{"SMEMBERS", func() error { _, err := o.SMembers(reserved); return err }},
		{"EXPIRE", func() error { return o.Expire(reserved, 1000) }},
		{"TTL", func() error { _, err := o.TTL(reserved); return err }},
		{"PERSIST", func() error { return o.Persist(reserved) }},
	} {
		if err := c.call(); err != ErrReserved {
			t.Errorf("%s on a reserved name: %v, want ErrReserved", c.verb, err)
		}
	}
	// Fields and members are any bytes: only names are routed.
	if err := o.HSet([]byte("foo"), []byte{NSByte, 'x'}, []byte("v")); err != nil {
		t.Fatalf("HSET of a 0x01 field: %v", err)
	}
	if v, err := o.HGet([]byte("foo"), []byte{NSByte, 'x'}); err != nil || string(v) != "v" {
		t.Fatalf("HGET of a 0x01 field = %q, %v", v, err)
	}
}

func TestHashOps(t *testing.T) {
	st := newKV(t)
	o := attach(t, st)

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
	o := attach(t, st)

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
	clk := fakeOf(st)
	o := attach(t, st)

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
	clk.Advance(100 * time.Millisecond)
	if ttl, err := o.TTL([]byte("flat")); err != nil || ttl != 400 {
		t.Fatalf("TTL = %d, %v", ttl, err)
	}
	if err := o.Persist([]byte("flat")); err != nil {
		t.Fatal(err)
	}
	if ttl, err := o.TTL([]byte("flat")); err != nil || ttl != -1 {
		t.Fatalf("TTL after Persist = %d, %v", ttl, err)
	}
	clk.Advance(1000 * time.Millisecond)
	if o.Expired([]byte("flat")) {
		t.Fatal("persisted key expired anyway")
	}

	// Expire an object, let it lapse unreaped (Close stops the expirer):
	// reads mask it immediately.
	if err := o.HSet([]byte("sess"), []byte("tok"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("sess"), 50); err != nil {
		t.Fatal(err)
	}
	o.Close()
	clk.Advance(51 * time.Millisecond)
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
	clk := fakeOf(st)
	o := attach(t, st)

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
	o.Close() // the expirer's timer would reap on the advance: tick by hand
	clk.Advance(100 * time.Millisecond)
	// A cached flat key must not outlive its reap.
	st.SetCache(kv.CacheConfig{Enable: true})
	if _, err := st.Get([]byte("flat")); err != nil {
		t.Fatal(err)
	}
	if n := o.ExpireTick(); n != 2 {
		t.Fatalf("ExpireTick reaped %d, want 2", n)
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
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, ChunkSize: 512, Clock: newClock()})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Attach(st, Options{})
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
	clk := fakeOf(st)
	o := attach(t, st)

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
	o.Close()
	clk.Advance(1000 * time.Millisecond) // lapsed, NOT reaped

	// The fake fires the timer Attach arms for the lapsed deadlines on the
	// next Advance only, so the ticks below are the reaps.
	st2, err := kv.Open(st.Snapshot(), kv.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := Attach(st2, Options{})
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
	st3, err := kv.Open(st2.Snapshot(), kv.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	o3, err := Attach(st3, Options{})
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
	clk := fakeOf(st)
	o := attach(t, st)

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
	o.Close() // the ticks race, not the expirer's timer
	clk.Advance(100 * time.Millisecond)

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
	clk := fakeOf(st)
	o, err := Attach(st, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Simulate the stream shipping an expiry record.
	deadline := clk.Now().UnixMilli() + 10
	var ev [8]byte
	for i := 0; i < 8; i++ {
		ev[i] = byte(uint64(deadline) >> (8 * i))
	}
	if err := st.Put(expiryKey([]byte("k")), ev[:]); err != nil {
		t.Fatal(err)
	}
	o.OnReplApply(kv.ReplPut, expiryKey([]byte("k")), ev[:])
	clk.Advance(100 * time.Millisecond)
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

// TestExpirerReapsOnItsOwn: the expirer's one timer, armed for the earliest
// deadline, reaps without an ExpireTick call — not a millisecond early, on
// the advance that crosses the deadline, earliest first whatever order the
// TTLs were set in, never on a replica before Activate, never after Close.
func TestExpirerReapsOnItsOwn(t *testing.T) {
	st := newKV(t)
	clk := fakeOf(st)
	o := attach(t, st)
	for _, name := range []string{"late", "early"} {
		hset(t, o, name, "f", "v")
	}
	if err := o.Expire([]byte("late"), 100); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("early"), 50); err != nil { // set after, due first
		t.Fatal(err)
	}
	clk.Advance(49 * time.Millisecond)
	if n := o.Stats().Reaps; n != 0 || !st.Has(headerKey([]byte("early"))) {
		t.Fatalf("1 ms before its deadline: %d reaps", n)
	}
	clk.Advance(time.Millisecond)
	if n := o.Stats().Reaps; n != 1 || st.Has(headerKey([]byte("early"))) {
		t.Fatalf("at the earlier deadline: %d reaps, early's header left: %v", n, st.Has(headerKey([]byte("early"))))
	}
	if !st.Has(headerKey([]byte("late"))) {
		t.Fatal("the later TTL reaped first")
	}
	clk.Advance(50 * time.Millisecond)
	if n := o.Stats().Reaps; n != 2 || st.Len() != 0 {
		t.Fatalf("at the later deadline: %d reaps, %d records left", n, st.Len())
	}

	// A replica arms nothing until Activate.
	rst := newKV(t)
	rclk := fakeOf(rst)
	if err := rst.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	ev := binary.LittleEndian.AppendUint64(nil, uint64(rclk.Now().UnixMilli()+10))
	if err := rst.Put(expiryKey([]byte("k")), ev); err != nil {
		t.Fatal(err)
	}
	r, err := Attach(rst, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	r.OnReplApply(kv.ReplPut, expiryKey([]byte("k")), ev)
	rclk.Advance(time.Second)
	if n := r.Stats().Reaps; n != 0 || !rst.Has([]byte("k")) {
		t.Fatalf("a replica reaped %d", n)
	}
	if err := r.Activate(); err != nil {
		t.Fatal(err)
	}
	rclk.Advance(0)
	if n := r.Stats().Reaps; n != 1 || rst.Has([]byte("k")) {
		t.Fatalf("after Activate: %d reaps", n)
	}

	// Close stops the timer: a deadline it was armed for passes unreaped.
	hset(t, o, "after", "f", "v")
	if err := o.Expire([]byte("after"), 10); err != nil {
		t.Fatal(err)
	}
	o.Close()
	clk.Advance(time.Second)
	if n := o.Stats().Reaps; n != 2 || !st.Has(headerKey([]byte("after"))) {
		t.Fatalf("a reap ran after Close: %d reaps", n)
	}
}

// TestExpireHugeTTL: a TTL whose deadline would not fit as ns since the Unix
// epoch is ErrBadTTL, and leaves the key and its old TTL as they were (it
// once wrapped to a deadline in the past, which reaped the key at once).
func TestExpireHugeTTL(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, ChunkSize: 1 << 14,
		Clock: clock.NewFake(time.UnixMilli(1_700_000_000_000))})
	if err != nil {
		t.Fatal(err)
	}
	o := attach(t, st)
	if err := st.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := o.Expire([]byte("k"), 5000); err != nil {
		t.Fatal(err)
	}
	for _, ttl := range []uint64{1 << 63, 1<<64 - 1, 1<<63 - 1} {
		if err := o.Expire([]byte("k"), ttl); !errors.Is(err, ErrBadTTL) {
			t.Errorf("Expire(k, %d) = %v, want ErrBadTTL", ttl, err)
		}
		if n := o.ExpireTick(); n != 0 {
			t.Errorf("Expire(k, %d): the tick reaped %d", ttl, n)
		}
		if v, err := st.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Errorf("Expire(k, %d): Get = %q, %v", ttl, v, err)
		}
		if rem, err := o.TTL([]byte("k")); err != nil || rem != 5000 {
			t.Errorf("Expire(k, %d): TTL = %d, %v; want the old 5000", ttl, rem, err)
		}
	}
}
