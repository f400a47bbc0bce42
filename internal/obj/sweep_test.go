package obj

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rntree/kv"
)

func hset(t testing.TB, o *Store, name, field, val string) {
	t.Helper()
	if err := o.HSet([]byte(name), []byte(field), []byte(val)); err != nil {
		t.Fatalf("HSet %s.%s: %v", name, field, err)
	}
}

// view is what the typed read API shows of one hash.
type view struct {
	fields map[string]string // HKeys → HGet
	ttl    int64             // TTL, or -2 for ErrNotFound
}

func viewOf(t testing.TB, o *Store, name string, probe ...string) view {
	t.Helper()
	v := view{fields: map[string]string{}, ttl: -2}
	keys, err := o.HKeys([]byte(name))
	if err != nil {
		t.Fatalf("HKeys %s: %v", name, err)
	}
	for _, f := range keys {
		val, err := o.HGet([]byte(name), f)
		if err != nil {
			t.Fatalf("HKeys lists %s.%s but HGet: %v", name, f, err)
		}
		v.fields[string(f)] = string(val)
	}
	// The fields a cut composite touched, whether listed or not: HGet must
	// agree with HKeys about each.
	for _, f := range probe {
		val, err := o.HGet([]byte(name), []byte(f))
		if _, listed := v.fields[f]; listed != (err == nil) {
			t.Fatalf("HGet %s.%s = %q, %v; listed by HKeys: %v", name, f, val, err, listed)
		}
	}
	if ttl, err := o.TTL([]byte(name)); err == nil {
		v.ttl = ttl
	} else if err != kv.ErrNotFound {
		t.Fatalf("TTL %s: %v", name, err)
	}
	return v
}

func (v view) equal(w view) bool {
	if v.ttl != w.ttl || len(v.fields) != len(w.fields) {
		return false
	}
	for f, val := range v.fields {
		if w.fields[f] != val {
			return false
		}
	}
	return true
}

// TestOrphanNeverObservable cuts every composite between its two writes —
// the store state a crash, a failover or a failed second write leaves — and
// checks that the typed API shows exactly the state before the composite
// (the header write had not happened) or after it (it had), never the
// orphan: before re-Attach, when only HGet's header check stands between a
// reader and the record, and after it, when the sweep must also have
// deleted every unlisted record.
func TestOrphanNeverObservable(t *testing.T) {
	const name = "u"
	for _, tc := range []struct {
		what string
		base func(t *testing.T, o *Store)
		cut  func(st *kv.Store) error // the first write of the composite, alone
		want view
	}{
		{
			what: "HSET: field written, header not",
			base: func(t *testing.T, o *Store) { hset(t, o, name, "a", "1") },
			cut:  func(st *kv.Store) error { return st.Put(fieldKey([]byte(name), []byte("b")), []byte("2")) },
			want: view{fields: map[string]string{"a": "1"}, ttl: -1}, // pre-state
		},
		{
			what: "first HSET of an object: field written, no header at all",
			base: func(t *testing.T, o *Store) {},
			cut:  func(st *kv.Store) error { return st.Put(fieldKey([]byte(name), []byte("b")), []byte("2")) },
			want: view{fields: map[string]string{}, ttl: -2}, // pre-state
		},
		{
			what: "HDEL: header' written, field not deleted",
			base: func(t *testing.T, o *Store) { hset(t, o, name, "a", "1"); hset(t, o, name, "b", "2") },
			cut: func(st *kv.Store) error {
				return st.Put(headerKey([]byte(name)), withElem(nil, TypeHash, []byte("a")))
			},
			want: view{fields: map[string]string{"a": "1"}, ttl: -1}, // post-state
		},
		{
			what: "HDEL of the last field: header deleted, field and expiry left",
			base: func(t *testing.T, o *Store) {
				hset(t, o, name, "b", "2")
				if err := o.Expire([]byte(name), 1000); err != nil {
					t.Fatal(err)
				}
			},
			cut:  func(st *kv.Store) error { return st.Delete(headerKey([]byte(name))) },
			want: view{fields: map[string]string{}, ttl: -2}, // post-state
		},
	} {
		t.Run(tc.what, func(t *testing.T) {
			st := newKV(t)
			o := attach(t, st)
			hset(t, o, "bystander", "f", "v")
			tc.base(t, o)
			if err := tc.cut(st); err != nil {
				t.Fatal(err)
			}
			if len(unlisted(st)) == 0 {
				t.Fatal("the cut left nothing unlisted: the row tests nothing")
			}
			if got := viewOf(t, o, name, "a", "b"); !got.equal(tc.want) {
				t.Fatalf("before re-Attach: %+v, want %+v", got, tc.want)
			}

			st2, err := kv.Open(st.Snapshot(), kv.Options{Clock: st.Clock()})
			if err != nil {
				t.Fatal(err)
			}
			o2 := attach(t, st2)
			if got := viewOf(t, o2, name, "a", "b"); !got.equal(tc.want) {
				t.Fatalf("after re-Attach: %+v, want %+v", got, tc.want)
			}
			if u := unlisted(st2); len(u) != 0 {
				t.Fatalf("re-Attach left unlisted records: %q", u)
			}
			if v, err := o2.HGet([]byte("bystander"), []byte("f")); err != nil || string(v) != "v" {
				t.Fatalf("the sweep touched a healthy object: %q, %v", v, err)
			}

			// The name is reusable, and an object built over the garbage
			// does not inherit its deadline — with or without a sweep first.
			for _, l := range []*Store{o, o2} {
				hset(t, l, name, "z", "9")
				if ttl, err := l.TTL([]byte(name)); err != nil || ttl != -1 {
					t.Fatalf("TTL of the rebuilt object = %d, %v; want -1", ttl, err)
				}
			}
		})
	}
}

// TestFailedHeaderWriteUndone: the second write of a fresh-field HSET fails
// with a full heap (the one-line field record still fits the open chunk, the
// multi-KB header needs a chunk the heap cannot give). The HSET reports the
// error, the field stays invisible and its record is taken back, so
// re-Attach finds nothing unlisted.
func TestFailedHeaderWriteUndone(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 256 << 10, ChunkSize: 8 << 10, MaxSegments: 1, Clock: newClock()})
	if err != nil {
		t.Fatal(err)
	}
	o := attach(t, st)
	name := []byte("wide")
	for i := 0; i < 100; i++ { // a header of ~3.5 KiB
		hset(t, o, "wide", fmt.Sprintf("field-with-a-long-name-%04d", i), "v")
	}
	filler := bytes.Repeat([]byte{7}, 2<<10)
	for i := 0; ; i++ {
		if err := st.Put([]byte(fmt.Sprintf("filler-%d", i)), filler); err != nil {
			if !errors.Is(err, kv.ErrFull) {
				t.Fatal(err)
			}
			break
		}
	}
	before, _ := o.HKeys(name)

	err = o.HSet(name, []byte("late"), []byte("v"))
	if !errors.Is(err, kv.ErrFull) {
		t.Fatalf("HSet on a full heap: %v, want ErrFull", err)
	}
	if got := o.Stats().IntentsUndone; got != 1 {
		t.Fatalf("IntentsUndone = %d: the failure was not at the header write", got)
	}
	check := func(o *Store, when string) {
		if _, err := o.HGet(name, []byte("late")); err != kv.ErrNotFound {
			t.Fatalf("%s: failed HSET's field visible: %v", when, err)
		}
		if after, _ := o.HKeys(name); len(after) != len(before) {
			t.Fatalf("%s: header lists %d fields, %d before the failed HSET", when, len(after), len(before))
		}
	}
	check(o, "before re-Attach")

	// Re-Attach over the same store: kv.Open takes a fresh chunk per
	// partition, so an image this full does not reopen at all.
	check(attach(t, st), "after re-Attach")
	if u := unlisted(st); len(u) != 0 {
		t.Fatalf("re-Attach left unlisted records: %q", u)
	}
}

// TestActivateSweepVsWriters: a promotion flips the node's role before it
// activates the object layer, so HSETs of fresh fields overlap the sweep. A
// sweep that deleted what its Range saw unlisted, without re-reading the
// header under the name's lock, would take the field record of an add
// caught between its two writes. Run under -race.
func TestActivateSweepVsWriters(t *testing.T) {
	st := newKV(t)
	o := attach(t, st)
	const writers, names, perWriter = 4, 3, 150

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := o.Activate(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("obj:%d", (w+i)%names)
				if err := o.HSet([]byte(name), []byte(fmt.Sprintf("w%d-f%d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	listed := 0
	for n := 0; n < names; n++ {
		name := []byte(fmt.Sprintf("obj:%d", n))
		fields, err := o.HKeys(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fields {
			if !st.Has(fieldKey(name, f)) {
				t.Fatalf("%s lists %q but the sweep deleted its record", name, f)
			}
		}
		listed += len(fields)
	}
	if listed != writers*perWriter {
		t.Fatalf("%d fields listed, %d written", listed, writers*perWriter)
	}
	if u := unlisted(st); len(u) != 0 {
		t.Fatalf("unlisted records: %q", u)
	}
}

// TestReapLargerThanChunk: a reap is a run of single-record deletes, so an
// object larger than a log chunk reaps like any other. (When a reap logged
// an undo image of the whole object in one record, this object could never
// be reaped, and every later HSet on its name failed with ErrTooLarge.)
func TestReapLargerThanChunk(t *testing.T) {
	st, err := kv.New(kv.Options{ArenaSize: 16 << 20, ChunkSize: 4096, Clock: newClock()})
	if err != nil {
		t.Fatal(err)
	}
	clk := fakeOf(st)
	o := attach(t, st)
	val := string(bytes.Repeat([]byte{'x'}, 200))
	for i := 0; i < 40; i++ {
		hset(t, o, "big", fmt.Sprintf("f%02d", i), val)
	}
	if err := o.Expire([]byte("big"), 10); err != nil {
		t.Fatal(err)
	}
	clk.Advance(20 * time.Millisecond) // the expirer's timer reaps
	if n := o.Stats().Reaps; n != 1 {
		t.Fatalf("the expirer reaped %d, want 1", n)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("reap left %d records", n)
	}
	hset(t, o, "big", "again", "v")
	if keys, err := o.HKeys([]byte("big")); err != nil || len(keys) != 1 {
		t.Fatalf("rebuilt object: %d fields, %v", len(keys), err)
	}
}
