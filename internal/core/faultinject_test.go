package core

import (
	"fmt"
	"sync"
	"testing"

	"rntree/internal/htm"
	"rntree/internal/pmem"
)

// Close on a non-quiescent tree must fail loudly instead of certifying a
// torn image as a clean shutdown.
func TestCloseAssertsQuiescent(t *testing.T) {
	mustPanic := func(name string, disturb, undo func(tr *Tree)) {
		a := pmem.New(pmem.Config{Size: 1 << 20})
		tr, err := New(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(1, 2); err != nil {
			t.Fatal(err)
		}
		disturb(tr)
		defer undo(tr)
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Close did not panic on a non-quiescent tree", name)
			}
		}()
		tr.Close()
	}
	mustPanic("locked leaf",
		func(tr *Tree) { tr.head.vl.Lock() },
		func(tr *Tree) { tr.head.vl.Unlock() })
	mustPanic("pinned writer",
		func(tr *Tree) { tr.head.pins.Add(1) },
		func(tr *Tree) { tr.head.pins.Add(-1) })
	mustPanic("splitting leaf",
		func(tr *Tree) { tr.head.vl.Lock(); tr.head.vl.SetSplit() },
		func(tr *Tree) { tr.head.vl.UnsetSplit(); tr.head.vl.Unlock() })
}

// A quiescent tree still closes and reconstructs normally with the
// assertion in place.
func TestCloseQuiescentStillWorks(t *testing.T) {
	a := pmem.New(pmem.Config{Size: 1 << 20})
	tr, err := New(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	tr2, err := Reconstruct(reboot(t, a.CrashImage(nil, 0)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.Len(); got != 50 {
		t.Fatalf("reconstructed Len = %d, want 50", got)
	}
}

// spuriousTree runs a concurrent mixed workload with 10% per-attempt
// spurious HTM abort injection (the acceptance bar for the abort-storm
// path): every operation must still complete correctly, with the injected
// aborts absorbed by the jittered-backoff retry loop and the fallback.
func spuriousTree(t *testing.T, opts Options) {
	opts.HTM = htm.Config{SpuriousAbortProb: 0.10, InjectSeed: 5}
	a := pmem.New(pmem.Config{Size: 16 << 20})
	tr, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perG    = 300
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 10_000
			for i := uint64(0); i < perG; i++ {
				k := base + i
				if err := tr.Insert(k, k+1); err != nil {
					errs <- fmt.Errorf("insert %d: %v", k, err)
					return
				}
				if v, ok := tr.Find(k); !ok || v != k+1 {
					errs <- fmt.Errorf("find %d = %d,%v", k, v, ok)
					return
				}
				if i%3 == 0 {
					if err := tr.Update(k, k+2); err != nil {
						errs <- fmt.Errorf("update %d: %v", k, err)
						return
					}
				}
				if i%5 == 4 {
					if err := tr.Remove(k); err != nil {
						errs <- fmt.Errorf("remove %d: %v", k, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := workers * (perG - perG/5)
	if got := tr.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if s := tr.region.Stats(); s.SpuriousAborts == 0 {
		t.Fatal("no spurious aborts injected at p=0.10")
	} else {
		t.Logf("injected %d spurious aborts over %d commits (%d fallbacks)",
			s.SpuriousAborts, s.Commits, s.Fallbacks)
	}
}

func TestSpuriousAbortStormTree(t *testing.T)   { spuriousTree(t, Options{}) }
func TestSpuriousAbortStormTreeDS(t *testing.T) { spuriousTree(t, Options{DualSlot: true}) }
