package htm

import (
	"sync"
	"testing"

	"rntree/internal/pmem"
)

// Spurious-abort injection must never affect correctness: every transaction
// still commits (by retry or fallback), writes stay intact, and the injected
// aborts show up in the stats.
func TestSpuriousAbortInjectionCommitsEverything(t *testing.T) {
	r := newRegion(t, 1<<16, Config{SpuriousAbortProb: 0.5, InjectSeed: 7})
	const n = 500
	for i := 0; i < n; i++ {
		off := pmem.DataStart + uint64(i%64)*8
		if err := r.Run(func(tx *Tx) { tx.Store8(off, tx.Load8(off)+1) }); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	var total uint64
	for i := 0; i < 64; i++ {
		total += r.Arena().Read8(pmem.DataStart + uint64(i)*8)
	}
	if total != n {
		t.Fatalf("lost updates: sum = %d, want %d", total, n)
	}
	s := r.Stats()
	if s.SpuriousAborts == 0 {
		t.Fatal("no spurious aborts injected at p=0.5")
	}
	if s.Commits+s.Fallbacks < n {
		t.Fatalf("commits=%d fallbacks=%d, want >= %d combined", s.Commits, s.Fallbacks, n)
	}
}

// At p=1 every hardware attempt dies, so each Run must fall back and still
// succeed — the storm path terminates.
func TestSpuriousAbortStormFallsBack(t *testing.T) {
	r := newRegion(t, 1<<16, Config{SpuriousAbortProb: 1.0})
	if err := r.Run(func(tx *Tx) { tx.Store8(pmem.DataStart+128, 5) }); err != nil {
		t.Fatal(err)
	}
	if r.Arena().Read8(pmem.DataStart+128) != 5 {
		t.Fatal("write lost under full injection")
	}
	s := r.Stats()
	if s.Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", s.Fallbacks)
	}
	if s.SpuriousAborts == 0 {
		t.Fatal("spurious counter not bumped")
	}
}

// Same seed, same single-threaded workload: the injection decisions — and so
// the attempt counts — must be identical run to run.
func TestSpuriousAbortInjectionDeterministic(t *testing.T) {
	trace := func() []int {
		r := newRegion(t, 1<<16, Config{SpuriousAbortProb: 0.3, InjectSeed: 99})
		var attempts []int
		for i := 0; i < 200; i++ {
			out, err := r.RunOutcome(func(tx *Tx) { tx.Store8(pmem.DataStart+128, uint64(i)) })
			if err != nil {
				t.Fatal(err)
			}
			attempts = append(attempts, out.Attempts)
		}
		return attempts
	}
	a, b := trace(), trace()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d: attempts %d vs %d — injection not deterministic", i, a[i], b[i])
		}
	}
}

// Concurrent counter increments under 10% injection: exercised with -race in
// CI; the jittered backoff plus fallback must preserve every update.
func TestSpuriousAbortInjectionConcurrent(t *testing.T) {
	r := newRegion(t, 1<<16, Config{SpuriousAbortProb: 0.10, InjectSeed: 3})
	const (
		workers = 8
		perG    = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if err := r.Run(func(tx *Tx) { tx.Store8(pmem.DataStart+256, tx.Load8(pmem.DataStart+256)+1) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Arena().Read8(pmem.DataStart + 256); got != workers*perG {
		t.Fatalf("counter = %d, want %d", got, workers*perG)
	}
	if r.Stats().SpuriousAborts == 0 {
		t.Fatal("expected injected aborts at p=0.10")
	}
}
