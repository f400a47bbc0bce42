package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rntree/internal/pmem"
)

// crashFuzz runs a randomized single-threaded workload against a tree,
// captures a crash image at one random persist boundary (optionally with
// random eviction of dirty cache lines), recovers from it, and checks
// durable linearizability: the recovered contents must equal the set of
// operations that had completed at the crash point, possibly plus the single
// in-flight operation — never a torn or reordered state.
func crashFuzz(t *testing.T, opts Options, trial int64, evictProb float64) {
	t.Helper()
	a := pmem.New(pmem.Config{Size: 32 << 20})
	opts.LeafCapacity = 16 // frequent splits exercise the split and trim paths
	tr, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(trial))
	const ops = 400
	// Roughly 2 persists per op plus split traffic.
	crashPhase := rng.Intn(ops * 3)

	committed := map[uint64]uint64{}
	var before, after map[uint64]uint64 // models bracketing the crash
	var img []uint64
	phase := 0
	var inflightApply func(m map[uint64]uint64)

	snap := func() {
		if img != nil || phase != crashPhase {
			phase++
			return
		}
		phase++
		img = a.CrashImage(rng, evictProb)
		before = make(map[uint64]uint64, len(committed))
		for k, v := range committed {
			before[k] = v
		}
		after = make(map[uint64]uint64, len(committed)+1)
		for k, v := range committed {
			after[k] = v
		}
		if inflightApply != nil {
			inflightApply(after)
		}
	}
	a.SetHooks(&pmem.Hooks{
		BeforePersist: func(_, _ uint64) { snap() },
		AfterPersist:  func(_, _ uint64) { snap() },
	})

	for i := 0; i < ops; i++ {
		k := rng.Uint64() % 300
		v := rng.Uint64() >> 1
		switch rng.Intn(4) {
		case 0, 1:
			inflightApply = func(m map[uint64]uint64) { m[k] = v }
			if err := tr.Upsert(k, v); err != nil {
				t.Fatal(err)
			}
			committed[k] = v
		case 2:
			if _, ok := committed[k]; !ok {
				inflightApply = nil
				continue
			}
			inflightApply = func(m map[uint64]uint64) { delete(m, k) }
			if err := tr.Remove(k); err != nil {
				t.Fatal(err)
			}
			delete(committed, k)
		case 3:
			inflightApply = func(m map[uint64]uint64) { m[k] = v }
			err := tr.Insert(k, v)
			if _, ok := committed[k]; ok {
				continue // ErrKeyExists expected; nothing committed
			}
			if err != nil {
				t.Fatal(err)
			}
			committed[k] = v
		}
	}
	a.SetHooks(nil)
	if img == nil {
		// Crash after the whole workload: exactly the committed state.
		img = a.CrashImage(rng, evictProb)
		before = committed
		after = committed
	}

	a2 := reboot(t, img)
	tr2, err := CrashRecover(a2, opts)
	if err != nil {
		t.Fatalf("trial %d: recovery failed: %v", trial, err)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatalf("trial %d: recovered tree invalid: %v", trial, err)
	}
	got := map[uint64]uint64{}
	tr2.Scan(0, 0, func(k, v uint64) bool { got[k] = v; return true })
	if !mapsEqual(got, before) && !mapsEqual(got, after) {
		t.Fatalf("trial %d: recovered state matches neither pre- nor post-op model\n got=%d keys\n before=%d keys after=%d keys\n diff(before)=%s",
			trial, len(got), len(before), len(after), mapsDiff(got, before))
	}
	// The recovered tree must accept further writes.
	if err := tr2.Upsert(1_000_000, 1); err != nil {
		t.Fatalf("trial %d: post-recovery write: %v", trial, err)
	}
}

func mapsEqual(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func mapsDiff(got, want map[uint64]uint64) string {
	s := ""
	n := 0
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			s += fmt.Sprintf(" want[%d]=%d got=(%d)", k, v, gv)
			if n++; n > 5 {
				break
			}
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			s += fmt.Sprintf(" extra[%d]=%d", k, v)
			if n++; n > 10 {
				break
			}
		}
	}
	return s
}

func TestCrashFuzzNoEviction(t *testing.T) {
	for trial := int64(0); trial < 25; trial++ {
		crashFuzz(t, Options{}, trial, 0)
	}
}

func TestCrashFuzzRandomEviction(t *testing.T) {
	// Random subsets of dirty lines reach NVM before the crash — the
	// adversarial schedule persist ordering must survive.
	for trial := int64(100); trial < 125; trial++ {
		crashFuzz(t, Options{}, trial, 0.4)
	}
}

func TestCrashFuzzFullEviction(t *testing.T) {
	for trial := int64(200); trial < 215; trial++ {
		crashFuzz(t, Options{}, trial, 1.0)
	}
}

func TestCrashFuzzDualSlot(t *testing.T) {
	for trial := int64(300); trial < 325; trial++ {
		crashFuzz(t, Options{DualSlot: true}, trial, 0.4)
	}
}
