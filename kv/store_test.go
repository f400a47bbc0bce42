package kv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func newStore(t testing.TB) *Store {
	t.Helper()
	s, err := New(Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAppendGetExact: AppendGet appends exactly the value, whatever its
// length and wherever its padded last word falls in a line, and leaves dst's
// bytes alone; on error it returns dst unchanged.
func TestAppendGetExact(t *testing.T) {
	s := newStore(t)
	for n := 0; n <= 200; n++ {
		key := []byte(fmt.Sprintf("key-%03d", n))
		val := make([]byte, n)
		for i := range val {
			val[i] = byte(n + 7*i)
		}
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
		got, err := s.AppendGet([]byte("dst:"), key)
		if err != nil || string(got) != "dst:"+string(val) {
			t.Fatalf("AppendGet(%s) = %q, %v; want dst: and %d value bytes", key, got, err, n)
		}
	}
	if got, err := s.AppendGet([]byte("dst:"), []byte("absent")); err != ErrNotFound || string(got) != "dst:" {
		t.Fatalf("AppendGet(absent) = %q, %v", got, err)
	}
}

func TestPutGetDelete(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get([]byte("absent")); err != ErrNotFound {
		t.Fatalf("absent Get: %v", err)
	}
	if err := s.Put([]byte("hello"), []byte("again")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get([]byte("hello")); string(v) != "again" {
		t.Fatalf("overwrite invisible: %q", v)
	}
	if err := s.Delete([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("hello")); err != ErrNotFound {
		t.Fatalf("deleted Get: %v", err)
	}
	if err := s.Delete([]byte("hello")); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	// Re-insert after delete.
	if err := s.Put([]byte("hello"), []byte("back")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get([]byte("hello")); string(v) != "back" {
		t.Fatalf("reinsert: %q", v)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := newStore(t)
	if err := s.Put(nil, []byte("x")); err != ErrEmptyKey {
		t.Fatal(err)
	}
	if err := s.Delete(nil); err != ErrEmptyKey {
		t.Fatal(err)
	}
}

func TestEmptyValueAllowed(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("k"), nil); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("k"))
	if err != nil || len(v) != 0 {
		t.Fatalf("empty value: %q %v", v, err)
	}
	if !s.Has([]byte("k")) {
		t.Fatal("Has false for empty-value key")
	}
}

func TestLargeValuesAcrossChunks(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(1))
	vals := map[string][]byte{}
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		val := make([]byte, 1000+rng.Intn(20000))
		rng.Read(val)
		vals[string(key)] = val
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	}
	for k, want := range vals {
		got, err := s.Get([]byte(k))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("key %s: %d bytes vs %d, err %v", k, len(got), len(want), err)
		}
	}
}

func TestTooLargeRejected(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("k"), make([]byte, 1<<16)); err != ErrTooLarge {
		t.Fatalf("oversized value: %v", err)
	}
}

func TestManyKeysAndRange(t *testing.T) {
	s := newStore(t)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("user:%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d", got)
	}
	seen := map[string]bool{}
	s.Range(func(k, v []byte) bool {
		if seen[string(k)] {
			t.Fatalf("Range emitted %q twice", k)
		}
		seen[string(k)] = true
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range saw %d keys", len(seen))
	}
}

func TestCrashRecoveryDurability(t *testing.T) {
	s := newStore(t)
	want := map[string]string{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(1000))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		case 2:
			if _, ok := want[k]; ok {
				if err := s.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(want, k)
			}
		}
	}
	img := s.Snapshot()
	s2, err := Open(img, Options{ArenaSize: 128 << 20, MaxSegments: 1, ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Len(); got != len(want) {
		t.Fatalf("recovered %d keys, want %d", got, len(want))
	}
	for k, v := range want {
		got, err := s2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("recovered %q = %q,%v want %q", k, got, err, v)
		}
	}
	// Recovered store must accept writes without corrupting old data.
	if err := s2.Put([]byte("post-crash"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s2.Get([]byte("post-crash")); string(v) != "yes" {
		t.Fatal("post-recovery write lost")
	}
}

func TestCompactReclaimsAndPreserves(t *testing.T) {
	s := newStore(t)
	// Heavy overwrite churn.
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("r%d", round))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		if err := s.Delete([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 50 {
		t.Fatalf("post-compact Len = %d", got)
	}
	for i := 50; i < 100; i++ {
		v, err := s.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || string(v) != "r49" {
			t.Fatalf("post-compact k%d = %q,%v", i, v, err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("k%d", i))); err != ErrNotFound {
			t.Fatalf("deleted key resurrected by compact: k%d", i)
		}
	}
	// Compacted store survives a crash.
	s2, err := Open(s.Snapshot(), Options{ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 50 {
		t.Fatalf("recovered post-compact Len = %d", s2.Len())
	}
}

// TestPartitionedStore drives the full CRUD surface over a multi-
// partition store and round-trips it through a snapshot: every partition
// arena must come back, in order, with the geometry it persisted.
func TestPartitionedStore(t *testing.T) {
	s, err := New(Options{ArenaSize: 256 << 20, MaxSegments: 1, ChunkSize: 1 << 14, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Partitions() != 4 {
		t.Fatalf("Partitions = %d", s.Partitions())
	}
	want := map[string]string{}
	for i := 0; i < 2000; i++ {
		k, v := fmt.Sprintf("k%d", i%800), fmt.Sprintf("v%d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 800; i += 5 {
		k := fmt.Sprintf("k%d", i)
		if err := s.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if got := s.Len(); got != len(want) {
		t.Fatalf("Len = %d, want %d", got, len(want))
	}
	st := s.Stats()
	if st.Partitions != 4 || st.LiveKeys != len(want) {
		t.Fatalf("stats: %+v", st)
	}
	// Every partition must actually hold keys (Mix64 routing spreads them).
	for i := range s.parts {
		if s.parts[i].tree.Len() == 0 {
			t.Fatalf("partition %d empty", i)
		}
	}
	imgs := s.Snapshot()
	if len(imgs) != 4 {
		t.Fatalf("snapshot has %d images", len(imgs))
	}
	s2, err := Open(imgs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Partitions() != 4 {
		t.Fatalf("recovered Partitions = %d", s2.Partitions())
	}
	for k, v := range want {
		got, err := s2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("recovered %q = %q,%v", k, got, err)
		}
	}
	if got := s2.Stats().LiveKeys; got != len(want) {
		t.Fatalf("recovered LiveKeys = %d, want %d", got, len(want))
	}

	// Reordered or incomplete image sets must be rejected: each root line's
	// forest binding names its partition and the partition count.
	imgs[0], imgs[1] = imgs[1], imgs[0]
	if _, err := Open(imgs, Options{}); err == nil {
		t.Fatal("reordered image set accepted")
	}
	imgs[0], imgs[1] = imgs[1], imgs[0]
	if _, err := Open(imgs[:2], Options{}); err == nil {
		t.Fatal("partial image set accepted")
	}
}

// TestOpenPartitionCountMismatch: Open never repartitions. A non-zero
// Options.Partitions other than the number of images is ErrPartitionCount,
// returned with the images untouched; zero and the persisted count open the
// same images with their contents, LSNs and replication state intact.
func TestOpenPartitionCountMismatch(t *testing.T) {
	s, err := New(Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 14, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 1000; i++ {
		k, v := fmt.Sprintf("k%d", i%400), fmt.Sprintf("v%d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 400; i += 7 {
		k := fmt.Sprintf("k%d", i)
		if err := s.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if err := s.SetReplState(3, 2); err != nil {
		t.Fatal(err)
	}
	lsn0, lsn1 := s.ReplLSN(0), s.ReplLSN(1)

	imgs := s.Snapshot()
	pristine := make([][]uint64, len(imgs))
	for i, img := range imgs {
		pristine[i] = append([]uint64(nil), img...)
	}
	for _, n := range []int{1, 4, -1} {
		_, err := Open(imgs, Options{Partitions: n})
		if !errors.Is(err, ErrPartitionCount) {
			t.Fatalf("Partitions %d over 2 images: %v, want ErrPartitionCount", n, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("is %d,", n)) || !strings.Contains(msg, "has 2 ") {
			t.Fatalf("Partitions %d: error %q does not name both counts", n, msg)
		}
	}
	if !reflect.DeepEqual(imgs, pristine) {
		t.Fatal("a rejected Open wrote to the images")
	}

	for _, n := range []int{0, 2} {
		r, err := Open(s.Snapshot(), Options{Partitions: n})
		if err != nil {
			t.Fatalf("Partitions %d over 2 images: %v", n, err)
		}
		if r.Partitions() != 2 {
			t.Fatalf("Partitions %d: reopened with %d partitions", n, r.Partitions())
		}
		got := map[string]string{}
		r.Range(func(k, v []byte) bool { got[string(k)] = string(v); return true })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Partitions %d: %d keys after reopen, want %d", n, len(got), len(want))
		}
		if e, role := r.ReplState(); e != 3 || role != 2 {
			t.Fatalf("Partitions %d: ReplState = (%d, %d) after reopen, want (3, 2)", n, e, role)
		}
		if r.ReplLSN(0) != lsn0 || r.ReplLSN(1) != lsn1 {
			t.Fatalf("Partitions %d: LSNs (%d, %d) after reopen, want (%d, %d)", n, r.ReplLSN(0), r.ReplLSN(1), lsn0, lsn1)
		}
		if err := r.Put([]byte("post"), []byte("reopen")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHashStability(t *testing.T) {
	if Hash([]byte("abc")) != Hash([]byte("abc")) {
		t.Fatal("hash unstable")
	}
	if Hash([]byte("abc")) == Hash([]byte("abd")) {
		t.Fatal("suspicious collision")
	}
	if Hash([]byte("x"))>>63 != 0 {
		t.Fatal("hash uses bit 63")
	}
}

func TestBinaryKeysAndValues(t *testing.T) {
	s := newStore(t)
	key := []byte{0, 1, 2, 255, 254, 0}
	val := []byte{0, 0, 0, 7}
	if err := s.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("binary roundtrip: %v %v", got, err)
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v0")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= 100; round++ {
			for i := 0; i < 200; i++ {
				if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", round))); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		for i := 0; i < 200; i += 17 {
			v, err := s.Get([]byte(fmt.Sprintf("k%d", i)))
			if err != nil {
				t.Fatalf("key vanished during writes: %v", err)
			}
			if len(v) < 2 || v[0] != 'v' {
				t.Fatalf("torn value: %q", v)
			}
		}
	}
}

func TestStatsLiveKeysExactAfterOpenAndCompact(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := s.Delete([]byte(fmt.Sprintf("k%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(s.Snapshot(), Options{ChunkSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().LiveKeys; got != 60 {
		t.Fatalf("LiveKeys after open = %d, want 60", got)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().LiveKeys; got != 60 {
		t.Fatalf("LiveKeys after compact = %d, want 60", got)
	}
	if got := s2.Len(); got != 60 {
		t.Fatalf("Len after compact = %d", got)
	}
}
