package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rntree/internal/pmem"
)

// reboot is pmem.Recover on an image the test expects to hold a sound heap.
func reboot(t testing.TB, img []uint64) *pmem.Arena {
	t.Helper()
	a, err := pmem.Recover(img, pmem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestCleanShutdownReconstruct(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		a := pmem.New(pmem.Config{Size: 32 << 20})
		tr, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 8000; i++ {
			k := rng.Uint64() % 100_000
			if _, ok := want[k]; ok {
				continue
			}
			want[k] = k + 1
			if err := tr.Insert(k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		tr.Close()
		if !WasCleanShutdown(a) {
			t.Fatal("clean flag not set")
		}
		// Reboot: only the NVM image survives.
		a2 := reboot(t, a.CrashImage(nil, 0))
		tr2, err := Reconstruct(a2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := tr2.Len(); got != len(want) {
			t.Fatalf("recovered %d records, want %d", got, len(want))
		}
		for k, v := range want {
			if got, ok := tr2.Find(k); !ok || got != v {
				t.Fatalf("recovered Find(%d) = (%d,%v), want %d", k, got, ok, v)
			}
		}
		// The clean flag must be disarmed after reopening.
		if WasCleanShutdown(a2) {
			t.Fatal("clean flag survived reopen")
		}
		// The reopened tree must be fully writable (allocator rebuilt).
		for i := uint64(0); i < 3000; i++ {
			if err := tr2.Upsert(200_000+i, i); err != nil {
				t.Fatalf("post-recovery insert: %v", err)
			}
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReconstructRefusesDirtyArena(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 16 << 20})
	tr, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = tr.Insert(1, 1)
	// No Close: simulate crash.
	a2 := reboot(t, a.CrashImage(nil, 0))
	if _, err := Reconstruct(a2, Options{}); err == nil {
		t.Fatal("Reconstruct accepted a crashed arena")
	}
}

func TestOpenDispatches(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 16 << 20})
	tr, _ := New(a, Options{})
	for i := uint64(0); i < 100; i++ {
		_ = tr.Insert(i, i)
	}
	tr.Close()
	a2 := reboot(t, a.CrashImage(nil, 0))
	tr2, err := Open(a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 100 {
		t.Fatalf("Len = %d", tr2.Len())
	}
	// Crash this one (no Close) and reopen via Open -> CrashRecover.
	for i := uint64(100); i < 200; i++ {
		_ = tr2.Insert(i, i)
	}
	a3 := reboot(t, a2.CrashImage(nil, 0))
	tr3, err := Open(a3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr3.Len() != 200 {
		t.Fatalf("after crash recovery Len = %d, want 200", tr3.Len())
	}
}

func TestCrashRecoverAfterQuiescentCrash(t *testing.T) {
	bothVariants(t, func(t *testing.T, opts Options) {
		a := pmem.New(pmem.Config{Size: 32 << 20})
		tr, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 6000; i++ {
			k := rng.Uint64() % 50_000
			v := rng.Uint64()
			switch rng.Intn(3) {
			case 0, 1:
				if err := tr.Upsert(k, v); err != nil {
					t.Fatal(err)
				}
				want[k] = v
			case 2:
				if _, ok := want[k]; ok {
					if err := tr.Remove(k); err != nil {
						t.Fatal(err)
					}
					delete(want, k)
				}
			}
		}
		// Crash without Close, between operations: every completed op is
		// durable (its commit point persisted), so recovery must yield
		// exactly the model.
		a2 := reboot(t, a.CrashImage(nil, 0))
		tr2, err := CrashRecover(a2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := tr2.Len(); got != len(want) {
			t.Fatalf("recovered %d records, want %d", got, len(want))
		}
		for k, v := range want {
			if got, ok := tr2.Find(k); !ok || got != v {
				t.Fatalf("Find(%d) = (%d,%v), want %d", k, got, ok, v)
			}
		}
		// Writable after crash recovery.
		for i := uint64(0); i < 2000; i++ {
			if err := tr2.Upsert(1_000_000+i, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecoverEmptyTree(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 4 << 20})
	tr, _ := New(a, Options{})
	tr.Close()
	a2 := reboot(t, a.CrashImage(nil, 0))
	tr2, err := Open(a2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != 0 {
		t.Fatal("empty tree recovered non-empty")
	}
	if err := tr2.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRejectsForeignArena(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 1 << 20})
	if _, err := Open(a, Options{}); err == nil {
		t.Fatal("opened an unformatted arena")
	}
}

func TestRecoveryPreservesLeafCapacity(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 16 << 20})
	tr, err := New(a, Options{LeafCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		_ = tr.Insert(i, i)
	}
	tr.Close()
	a2 := reboot(t, a.CrashImage(nil, 0))
	// Pass a different capacity: the persisted one must win.
	tr2, err := Open(a2, Options{LeafCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	if tr2.capacity != 16 {
		t.Fatalf("capacity = %d, want persisted 16", tr2.capacity)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenCorruptPointers: every persisted pointer tree recovery follows —
// the root's head-leaf word and a leaf's next, the one crash recovery's
// trim pass reads to find a leaf's successor — holds a value no allocation
// produced: beyond the arena, misaligned, inside the heap header, above the
// allocation mark, or the word's own block (a cycle only the step budget
// stops). The slot lines the trim pass compares (a leaf's and its
// successor's) hold a count past capacity-1, a log index past the capacity,
// or keys out of order.
// Both reopen paths must return an error: no panic in the arena's bounds
// check, no endless walk.
func TestOpenCorruptPointers(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 1 << 20})
	tr, err := New(a, Options{LeafCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 100; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	head := a.Read8(rootHeadOff)
	second := a.Read8(head + hdrNextOff)
	if second == pmem.NullOff || a.Read8(second+hdrNextOff) == pmem.NullOff {
		t.Fatal("the tree never split twice; the chain-hop cases need three leaves")
	}
	crashed := a.CrashImage(nil, 0)
	tr.Close()
	closed := a.CrashImage(nil, 0)

	type word struct {
		name string
		off  uint64
		self uint64 // the block holding the word, where pointing there closes a cycle
	}
	words := []word{
		{"root head", rootHeadOff, 1 << 50},
		{"first leaf's next", head + hdrNextOff, head},
		{"second leaf's next", second + hdrNextOff, second},
	}
	open := func(tag string, img []uint64) error {
		t.Helper()
		type result struct {
			err      error
			panicked any
		}
		done := make(chan result, 1)
		go func() {
			var r result
			defer func() {
				r.panicked = recover()
				done <- r
			}()
			var rec *pmem.Arena
			if rec, r.err = pmem.Recover(img, pmem.Config{}); r.err == nil {
				_, r.err = Open(rec, Options{})
			}
		}()
		select {
		case r := <-done:
			if r.panicked != nil {
				t.Fatalf("%s: Open panicked: %v", tag, r.panicked)
			}
			return r.err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: Open hung", tag)
			return nil
		}
	}
	for path, img := range map[string][]uint64{"crash recovery": crashed, "reconstruction": closed} {
		if err := open(path+": pristine", img); err != nil {
			t.Fatalf("%s: pristine image: %v", path, err)
		}
		poke := func(off, v uint64) []uint64 {
			cp := append([]uint64(nil), img...)
			cp[off/pmem.WordSize] = v
			return cp
		}
		for _, w := range words {
			for _, v := range []uint64{1 << 40, ^uint64(0), 12345, pmem.DataStart - pmem.LineSize, a.Bump(), w.self} {
				tag := fmt.Sprintf("%s: %s = %#x", path, w.name, v)
				if err := open(tag, poke(w.off, v)); err == nil {
					t.Errorf("%s: Open accepted the image", tag)
				}
			}
		}
		// Slot-line bytes: byte 0 is the count, byte 1+i the log index of
		// rank i; the first leaf's slot line is read as the leaf the trim
		// pass trims, the second's as its successor.
		for _, leaf := range []uint64{head, second} {
			slotWord := (leaf + pslotOff) / pmem.WordSize
			w := img[slotWord]
			for _, c := range []struct {
				name string
				v    uint64
			}{
				{"count past capacity-1", w&^0xff | 0xff},
				{"log index past the capacity", w&^0xff00 | 200<<8},
				{"first two ranks swapped", w&^0xffff00 | (w>>8&0xff)<<16 | (w>>16&0xff)<<8},
			} {
				tag := fmt.Sprintf("%s: leaf %#x slot line: %s", path, leaf, c.name)
				if err := open(tag, poke(slotWord*pmem.WordSize, c.v)); err == nil {
					t.Errorf("%s: Open accepted the image", tag)
				}
			}
		}
	}
}
