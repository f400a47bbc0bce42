package clock

import (
	"testing"
	"time"
)

func TestFakeAdvanceFiresInDeadlineOrder(t *testing.T) {
	start := time.Unix(100, 0)
	c := NewFake(start)
	var fired []time.Duration
	record := func() { fired = append(fired, c.Now().Sub(start)) }
	c.AfterFunc(30*time.Millisecond, record)
	c.AfterFunc(10*time.Millisecond, record)
	late := c.AfterFunc(20*time.Millisecond, record)
	if !late.Reset(40 * time.Millisecond) {
		t.Fatal("Reset of a pending timer reported it idle")
	}
	stopped := c.AfterFunc(15*time.Millisecond, record)
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop did not report the timer pending exactly once")
	}

	c.Advance(9 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("a timer fired early: %v", fired)
	}
	c.Advance(31 * time.Millisecond)
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v: each callback reads its own deadline", fired, want)
		}
	}
	if got := c.Now().Sub(start); got != 40*time.Millisecond {
		t.Fatalf("clock reads +%v after advancing 40ms", got)
	}
}

// A callback may read the clock and re-arm timers; a re-arm due inside the
// span being advanced runs in the same Advance, and one due at or before
// now runs on the next.
func TestFakeCallbackRearms(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	n := 0
	var tm Timer
	tm = c.AfterFunc(time.Millisecond, func() {
		if n++; n < 3 {
			tm.Reset(time.Millisecond)
		}
	})
	c.Advance(10 * time.Millisecond)
	if n != 3 {
		t.Fatalf("re-armed timer ran %d times in one Advance, want 3", n)
	}
	tm.Reset(-time.Second)
	c.Advance(0)
	if n != 4 {
		t.Fatalf("a past-due timer did not fire on the next Advance: %d runs", n)
	}
}

func TestRealAfterFunc(t *testing.T) {
	var c Clock = Real{}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	if !c.AfterFunc(time.Hour, func() {}).Stop() {
		t.Fatal("Stop of a pending real timer reported it idle")
	}
}
