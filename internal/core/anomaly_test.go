package core

import (
	"testing"
	"time"

	"rntree/internal/pmem"
)

// These tests freeze a writer at the most dangerous instant — after the new
// slot array is visible in the cache (HTM committed) but before it is
// flushed to NVM — and probe what concurrent readers observe. This is the
// read-uncommitted anomaly of §3.5: returning the new value here would be a
// linearizability violation, because a crash would revert it.

// pauseOnSlotPersist arms hooks that block the writer goroutine at the
// BeforePersist of its slot-array flush (the only 64-byte persist in a
// modify operation) until release is closed.
func pauseOnSlotPersist(a *pmem.Arena) (paused chan struct{}, release chan struct{}) {
	paused = make(chan struct{})
	release = make(chan struct{})
	armed := true
	a.SetHooks(&pmem.Hooks{
		BeforePersist: func(off, size uint64) {
			if armed && size == pmem.LineSize {
				armed = false
				close(paused)
				<-release
			}
		},
	})
	return paused, release
}

func TestDualSlotReaderNeverSeesUnflushedSlot(t *testing.T) {
	tr := newTree(t, Options{DualSlot: true}, 0)
	if err := tr.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	paused, release := pauseOnSlotPersist(tr.Arena())
	done := make(chan error, 1)
	go func() { done <- tr.Update(1, 200) }()
	<-paused
	// The writer has committed the new persistent slot array to the cache
	// but not flushed it, and has not updated the transient copy. A +DS
	// reader must return the old, durable value — without blocking.
	got := make(chan uint64, 1)
	go func() {
		v, ok := tr.Find(1)
		if !ok {
			v = 0
		}
		got <- v
	}()
	select {
	case v := <-got:
		if v != 100 {
			t.Fatalf("reader saw unflushed value %d (read-uncommitted anomaly)", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("+DS reader blocked on a writer mid-flush")
	}
	close(release)
	tr.Arena().SetHooks(nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if v, _ := tr.Find(1); v != 200 {
		t.Fatalf("update lost: %d", v)
	}
}

func TestBaseReaderWaitsOutWriterCriticalSection(t *testing.T) {
	// Without the dual slot array, the reader cannot distinguish flushed
	// from unflushed slot state, so it must wait for the writer's critical
	// section (lock bit) to clear — it may be slow, but it must never
	// return the unflushed value.
	tr := newTree(t, Options{}, 0)
	if err := tr.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	paused, release := pauseOnSlotPersist(tr.Arena())
	done := make(chan error, 1)
	go func() { done <- tr.Update(1, 200) }()
	<-paused
	got := make(chan uint64, 1)
	go func() {
		v, _ := tr.Find(1)
		got <- v
	}()
	// While the writer is frozen inside its critical section the base
	// reader must NOT complete (that is precisely the reader/writer
	// contention +DS removes)...
	select {
	case v := <-got:
		t.Fatalf("base reader returned %d while the slot flush was in flight", v)
	case <-time.After(100 * time.Millisecond):
	}
	// ...and once the writer finishes, the reader returns the new durable
	// value.
	close(release)
	tr.Arena().SetHooks(nil)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 200 {
			t.Fatalf("reader returned %d after writer completed", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("base reader never completed after writer release")
	}
}

func TestCrashAtUnflushedSlotRevertsCleanly(t *testing.T) {
	// The other half of the anomaly argument: if the machine dies at that
	// same instant, recovery must yield the OLD value — matching what the
	// +DS reader reported above. Reader view and crash outcome agree:
	// that is durable linearizability.
	tr := newTree(t, Options{DualSlot: true}, 0)
	if err := tr.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	var img []uint64
	armed := true
	tr.Arena().SetHooks(&pmem.Hooks{
		BeforePersist: func(off, size uint64) {
			if armed && size == pmem.LineSize {
				armed = false
				img = tr.Arena().CrashImage(nil, 0)
			}
		},
	})
	if err := tr.Update(1, 200); err != nil {
		t.Fatal(err)
	}
	tr.Arena().SetHooks(nil)
	if img == nil {
		t.Fatal("hook never fired")
	}
	rec, err := CrashRecover(reboot(t, img), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rec.Find(1)
	if !ok || v != 100 {
		t.Fatalf("recovered value = (%d,%v), want the pre-update 100", v, ok)
	}
}
