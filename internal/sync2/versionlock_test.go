package sync2

import (
	"sync"
	"testing"
	"time"
)

func TestVersionLockBasics(t *testing.T) {
	var v VersionLock
	if v.IsLocked() || v.IsSplitting() || v.Version() != 0 {
		t.Fatal("zero value not clean")
	}
	if !v.TryLock() {
		t.Fatal("TryLock failed on unlocked word")
	}
	if v.TryLock() {
		t.Fatal("TryLock succeeded on locked word")
	}
	if !v.IsLocked() {
		t.Fatal("lock bit not set")
	}
	v.Unlock()
	if v.IsLocked() {
		t.Fatal("lock bit not cleared")
	}
}

func TestUnlockPanicsWhenUnlocked(t *testing.T) {
	var v VersionLock
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.Unlock()
}

func TestSplitIncrementsVersion(t *testing.T) {
	var v VersionLock
	v.Lock()
	v.SetSplit()
	if !v.IsSplitting() {
		t.Fatal("split bit not set")
	}
	v.UnsetSplit()
	if v.IsSplitting() {
		t.Fatal("split bit not cleared")
	}
	if v.Version() != 1 {
		t.Fatalf("version = %d, want 1", v.Version())
	}
	v.Unlock()
}

func TestUnsetSplitWithoutSetPanics(t *testing.T) {
	var v VersionLock
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.UnsetSplit()
}

func TestStableVersionWaitsForSplit(t *testing.T) {
	var v VersionLock
	v.Lock()
	v.SetSplit()
	done := make(chan uint64)
	go func() { done <- v.StableVersion() }()
	// StableVersion must not return while splitting.
	select {
	case <-done:
		t.Fatal("StableVersion returned during split")
	default:
	}
	v.UnsetSplit()
	if got := <-done; got != 1 {
		t.Fatalf("StableVersion = %d, want 1", got)
	}
	v.Unlock()
}

func TestVersionPreservedAcrossLock(t *testing.T) {
	var v VersionLock
	v.Lock()
	v.SetSplit()
	v.UnsetSplit()
	v.Unlock()
	v.Lock()
	if v.Version() != 1 {
		t.Fatalf("version lost across lock: %d", v.Version())
	}
	v.Unlock()
}

func TestVersionLockMutualExclusion(t *testing.T) {
	var v VersionLock
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				v.Lock()
				counter++
				v.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 16000 {
		t.Fatalf("counter = %d, want 16000 (lost updates)", counter)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var s SpinLock
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				s.Lock()
				counter++
				s.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 16000 {
		t.Fatalf("counter = %d, want 16000", counter)
	}
}

func TestSpinLockTryLock(t *testing.T) {
	var s SpinLock
	if !s.TryLock() {
		t.Fatal("TryLock failed on free lock")
	}
	if s.TryLock() {
		t.Fatal("TryLock succeeded on held lock")
	}
	if !s.IsLocked() {
		t.Fatal("IsLocked false while held")
	}
	s.Unlock()
	if s.IsLocked() {
		t.Fatal("IsLocked true after unlock")
	}
}

func TestSpinLockUnlockPanics(t *testing.T) {
	var s SpinLock
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Unlock()
}

// TestBackoffJitterBounds: RetryDelay's delay doubles from base to its cap and
// every draw lands in [d/2, d], spread over that range rather than stuck.
func TestBackoffJitterBounds(t *testing.T) {
	const base, ceil = 4 * time.Millisecond, 16 * time.Millisecond
	for attempt := -1; attempt < 40; attempt++ {
		d := base
		for i := 0; i < attempt && d < ceil; i++ {
			d *= 2
		}
		d = min(d, ceil)
		lo, hi := d, time.Duration(0)
		for i := 0; i < 200; i++ {
			got := RetryDelay(attempt, base, ceil)
			if got < d/2 || got > d {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, d/2, d)
			}
			lo, hi = min(lo, got), max(hi, got)
		}
		if hi-lo < d/4 {
			t.Errorf("attempt %d: 200 delays within [%v, %v]: not jittered across [%v, %v]", attempt, lo, hi, d/2, d)
		}
	}
}
