// Package sync2 provides the synchronization building blocks of Section 5.1
// of the paper: a Masstree-style combined version/lock word (Figure 2) and a
// simple spin lock. A single integer carries a lock bit used by modify
// operations, a splitting bit set while a leaf node is being split, and a
// version number that is incremented when a split finishes — so readers only
// retry when the leaf they examined was structurally changed.
package sync2

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// LockBit is set while a writer holds the leaf lock.
	LockBit uint64 = 1 << 63
	// SplitBit is set while the leaf is being split.
	SplitBit uint64 = 1 << 62
	// VersionMask extracts the version number.
	VersionMask uint64 = SplitBit - 1
)

// VersionLock is the combined version/lock/splitting word of Figure 2.
// The zero value is unlocked, not splitting, version 0.
type VersionLock struct {
	w atomic.Uint64
}

// Raw returns the current raw word (version + flag bits).
func (v *VersionLock) Raw() uint64 { return v.w.Load() }

// Version returns the current version number, ignoring flag bits.
func (v *VersionLock) Version() uint64 { return v.w.Load() & VersionMask }

// IsLocked reports whether the lock bit is set.
func (v *VersionLock) IsLocked() bool { return v.w.Load()&LockBit != 0 }

// IsSplitting reports whether the splitting bit is set.
func (v *VersionLock) IsSplitting() bool { return v.w.Load()&SplitBit != 0 }

// TryLock attempts to set the lock bit with a single CAS.
func (v *VersionLock) TryLock() bool {
	old := v.w.Load()
	if old&LockBit != 0 {
		return false
	}
	return v.w.CompareAndSwap(old, old|LockBit)
}

// Lock spins until the lock bit is acquired (the paper's lock helper, a CAS
// loop on the lock bit).
func (v *VersionLock) Lock() {
	for i := 0; ; i++ {
		if v.TryLock() {
			return
		}
		backoff(i)
	}
}

// Unlock clears the lock bit. The caller must hold the lock.
func (v *VersionLock) Unlock() {
	for {
		old := v.w.Load()
		if old&LockBit == 0 {
			panic("sync2: unlock of unlocked VersionLock")
		}
		if v.w.CompareAndSwap(old, old&^LockBit) {
			return
		}
	}
}

// SetSplit sets the splitting bit. The caller must hold the lock.
func (v *VersionLock) SetSplit() {
	for {
		old := v.w.Load()
		if v.w.CompareAndSwap(old, old|SplitBit) {
			return
		}
	}
}

// UnsetSplit clears the splitting bit and increments the version number,
// signalling readers that the leaf's structure changed (Section 5.1: "The
// version number is increased when the splitting is finished").
func (v *VersionLock) UnsetSplit() {
	for {
		old := v.w.Load()
		if old&SplitBit == 0 {
			panic("sync2: UnsetSplit without SetSplit")
		}
		next := (old &^ SplitBit) + 1
		if next&VersionMask == 0 { // version wrapped into flag bits
			next = old &^ (SplitBit | VersionMask)
		}
		if v.w.CompareAndSwap(old, next) {
			return
		}
	}
}

// StableVersion spins until the splitting bit is clear and returns the
// version number observed at that moment (the paper's stableVersion helper).
// Readers call it before and after their computation; a changed version
// means a split intervened and the read must retry.
func (v *VersionLock) StableVersion() uint64 {
	for i := 0; ; i++ {
		w := v.w.Load()
		if w&SplitBit == 0 {
			return w & VersionMask
		}
		backoff(i)
	}
}

// SpinLock is a minimal test-and-set spin lock for short critical sections.
// The zero value is unlocked.
type SpinLock struct {
	v atomic.Uint32
}

// TryLock attempts to acquire the lock without blocking.
func (s *SpinLock) TryLock() bool { return s.v.CompareAndSwap(0, 1) }

// Lock spins (with progressive backoff) until acquired.
func (s *SpinLock) Lock() {
	for i := 0; ; i++ {
		if s.TryLock() {
			return
		}
		backoff(i)
	}
}

// Unlock releases the lock.
func (s *SpinLock) Unlock() {
	if !s.v.CompareAndSwap(1, 0) {
		panic("sync2: unlock of unlocked SpinLock")
	}
}

// IsLocked reports whether the lock is currently held.
func (s *SpinLock) IsLocked() bool { return s.v.Load() != 0 }

// backoff yields progressively: a few busy spins, then scheduler yields.
func backoff(i int) {
	if i < 8 {
		for j := 0; j < 1<<uint(i); j++ {
			_ = j
		}
		return
	}
	runtime.Gosched()
}

// jitterSeed seeds per-loop JitterBackoff RNG states so that concurrent
// retry loops never share a jitter sequence.
var jitterSeed atomic.Uint64

// JitterBackoff spins for a jittered, exponentially growing interval before
// a retry — the same desynchronization the HTM region applies to conflict
// aborts. Plain progressive backoff keeps colliding loops in lock step
// (they all wait the same time and collide again); the randomized interval
// spreads them out. state is a per-loop RNG cursor, lazily seeded on first
// use; attempt caps at 8 so the ceiling stays bounded (~4k spins).
func JitterBackoff(attempt int, state *uint64) {
	if *state == 0 {
		*state = jitterSeed.Add(0x9e3779b97f4a7c15) | 1
	}
	if attempt > 8 {
		attempt = 8
	}
	*state += 0x9e3779b97f4a7c15
	ceil := uint64(16) << uint(attempt)
	spins := ceil/2 + splitmix64(*state)%(ceil/2+1) // jitter in [ceil/2, ceil]
	for i := uint64(0); i < spins; i++ {
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
}

// retryState is the Weyl sequence behind RetryDelay.
var retryState atomic.Uint64

// RetryDelay is the wall-clock counterpart of JitterBackoff, shared by the
// network retry loops (client reconnects and overload retries, failover
// rounds, the replica's reconnects): attempt's delay d doubles from base up
// to max and is jittered uniformly into [d/2, d], so a fleet of peers that
// lost one server does not retry in lock step. Each draw mixes the clock into
// one shared sequence, so processes started together still diverge.
func RetryDelay(attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := uint64(d) / 2
	j := splitmix64(retryState.Add(0x9e3779b97f4a7c15) ^ uint64(time.Now().UnixNano()))
	return time.Duration(half + j%(uint64(d)-half+1))
}

// splitmix64 finalizes a Weyl-sequence state into a uniform 64-bit value.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
