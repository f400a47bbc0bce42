package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rntree/internal/pmem"
)

// fpForKey reads back the fingerprint stored for the log entry currently
// holding key, or fails the lookup.
func fpForKey(t *testing.T, tr *Tree, key uint64) (stored, want byte) {
	t.Helper()
	m := tr.leafFor(key)
	s := tr.htmLeafSnapshot(m, pslotOff)
	pos, ok := tr.searchLeaf(m, &s, key)
	if !ok {
		t.Fatalf("key %d not in its leaf", key)
	}
	e := int(s.idx[pos])
	var words [fpWords]uint64
	m.loadFps(&words)
	return byte(words[e>>3] >> (uint(e&7) * 8)), fpHash(key)
}

// checkFps verifies that every live entry in every leaf has its fingerprint
// installed — the invariant that makes probeLeaf misses trustworthy.
func checkFps(t *testing.T, tr *Tree) {
	t.Helper()
	for m := tr.head; m != nil; m = m.next.Load() {
		s := tr.htmLeafSnapshot(m, pslotOff)
		var words [fpWords]uint64
		m.loadFps(&words)
		for i := 0; i < s.n; i++ {
			e := int(s.idx[i])
			k := tr.arena.Read8(kvEntryOff(m.off, e))
			got := byte(words[e>>3] >> (uint(e&7) * 8))
			if got != fpHash(k) {
				t.Fatalf("leaf @%#x entry %d key %d: fp %#x, want %#x", m.off, e, k, got, fpHash(k))
			}
		}
	}
}

// TestFingerprintMaintained drives every slot-array commit point — insert,
// update, remove, split, compaction — and checks the filter tracks the logs.
func TestFingerprintMaintained(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		tr := newTree(t, opts, 0)
		r := rand.New(rand.NewSource(7))
		live := map[uint64]uint64{}
		for i := 0; i < 5000; i++ {
			k := uint64(r.Intn(800))*2 + 2
			switch r.Intn(3) {
			case 0:
				if err := tr.Upsert(k, k*3); err != nil {
					t.Fatal(err)
				}
				live[k] = k * 3
			case 1:
				if _, ok := live[k]; ok {
					if err := tr.Update(k, k*5); err != nil {
						t.Fatal(err)
					}
					live[k] = k * 5
				}
			case 2:
				if _, ok := live[k]; ok {
					if err := tr.Remove(k); err != nil {
						t.Fatal(err)
					}
					delete(live, k)
				}
			}
		}
		checkFps(t, tr)
		for k, v := range live {
			got, ok := tr.Find(k)
			if !ok || got != v {
				t.Fatalf("Find(%d) = %d,%v want %d", k, got, ok, v)
			}
			stored, want := fpForKey(t, tr, k)
			if stored != want {
				t.Fatalf("fp for %d: %#x want %#x", k, stored, want)
			}
		}
		// Absent keys must miss (the filter may force an extra key read on
		// collision, never a wrong answer).
		for k := uint64(1); k < 1600; k += 2 {
			if _, ok := tr.Find(k); ok {
				t.Fatalf("found absent key %d", k)
			}
		}
	})
}

// TestFingerprintCollision exercises the false-positive path: two keys with
// colliding fingerprints in one leaf must still be told apart by the full
// key verify.
func TestFingerprintCollision(t *testing.T) {
	base := uint64(1000)
	fp := fpHash(base)
	var twin uint64
	for k := base + 1; ; k++ {
		if fpHash(k) == fp {
			twin = k
			break
		}
	}
	tr := newTree(t, Options{}, 0)
	if err := tr.Insert(base, 111); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(twin, 222); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Find(base); !ok || v != 111 {
		t.Fatalf("Find(base) = %d,%v", v, ok)
	}
	if v, ok := tr.Find(twin); !ok || v != 222 {
		t.Fatalf("Find(twin) = %d,%v", v, ok)
	}
	// A third colliding key that is absent must miss despite matching both
	// stored fingerprints.
	for k := twin + 1; ; k++ {
		if fpHash(k) == fp {
			if _, ok := tr.Find(k); ok {
				t.Fatalf("absent colliding key %d found", k)
			}
			break
		}
	}
}

// TestFingerprintRecovery checks that all three reopen paths rebuild the
// filter: clean reconstruct, crash recovery, and bulk load.
func TestFingerprintRecovery(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 16 << 20})
	tr, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 500; i++ {
		if err := tr.Insert(i*3, i); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	a2 := reboot(t, a.CrashImage(nil, 0))
	tr2, err := Open(a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFps(t, tr2)
	for i := uint64(1); i <= 500; i++ {
		if v, ok := tr2.Find(i * 3); !ok || v != i {
			t.Fatalf("reconstructed Find(%d) = %d,%v", i*3, v, ok)
		}
	}
	// Crash: reopen without Close.
	tr3, err := CrashRecover(reboot(t, a2.CrashImage(nil, 0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkFps(t, tr3)
	for i := uint64(1); i <= 500; i++ {
		if v, ok := tr3.Find(i * 3); !ok || v != i {
			t.Fatalf("crash-recovered Find(%d) = %d,%v", i*3, v, ok)
		}
	}
}

// TestFingerprintConcurrent hammers Find against writers and splits; any
// stale-filter bug shows up as a lost key or a wrong value.
func TestFingerprintConcurrent(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		tr := newTree(t, opts, 64)
		const keys = 4096
		for k := uint64(0); k < keys; k += 2 {
			if err := tr.Insert(k+2, 1); err != nil {
				t.Fatal(err)
			}
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					k := uint64(r.Intn(keys/2))*2 + 2
					_ = tr.Upsert(k, k)
				}
			}(int64(w + 1))
		}
		for r := 0; r < 8; r++ {
			for k := uint64(0); k < keys; k += 2 {
				if _, ok := tr.Find(k + 2); !ok {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("key %d vanished under concurrent upserts", k+2)
				}
				if _, ok := tr.Find(k + 1); ok {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("absent key %d appeared", k+1)
				}
			}
		}
		stop.Store(true)
		wg.Wait()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestModifyBackoffBounded is the contended-split stress test: writers
// hammering one hot leaf range force repeated splits; the jittered backoff
// must keep discarded attempts within a small multiple of the operations
// (a hot spin shows up as orders of magnitude more).
func TestModifyBackoffBounded(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		tr := newTree(t, opts, 64)
		const (
			workers = 8
			perW    = 4000
		)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Dense ascending keys interleaved across workers: every
				// writer targets the same right-edge leaf, so each split
				// races the whole pack.
				for i := 0; i < perW; i++ {
					k := uint64(i*workers+w) + 1
					if err := tr.Upsert(k, k); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		ops := uint64(workers * perW)
		retries := tr.SplitRetries()
		// Each split can discard at most one in-flight attempt per worker,
		// and backoff keeps re-collisions from cascading. 4 retries per op
		// is an order of magnitude above anything observed (<0.5/op).
		if retries > 4*ops {
			t.Fatalf("split retries %d for %d ops: retry loop is hot-spinning", retries, ops)
		}
		if n := tr.Len(); n != int(ops) {
			t.Fatalf("tree has %d keys, want %d", n, ops)
		}
	})
}
