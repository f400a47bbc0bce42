// Package clock is the served stack's time. A kv store owns one
// (kv.Options.Clock), and the fence lease, the TTLs and the durable-ack
// deadlines all read it, so one Fake's Advance moves every one of them.
package clock

import (
	"sync"
	"time"
)

// Clock reads the time and schedules callbacks against it.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has elapsed, unless the timer is stopped.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc callback. Reset re-arms it to fire d from
// now; both report whether it was pending.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// Real is the wall clock: time.Now and time.AfterFunc.
type Real struct{}

func (Real) Now() time.Time                            { return time.Now() }
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Fake is a clock that moves only when Advance moves it. Its timers fire on
// Advance's caller goroutine, never on a goroutine of their own; a timer due
// at or before the current time fires on the next Advance.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	c       *Fake
	f       func()
	when    time.Time
	pending bool
}

// NewFake returns a Fake that reads start until it is advanced.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{c: c, f: f, when: c.now.Add(d), pending: true}
	c.timers = append(c.timers, t)
	return t
}

// Advance moves the clock forward by d. Every timer that comes due runs in
// deadline order, with the clock reading its deadline, and without the
// Fake's lock held, so a callback may read the clock and re-arm timers; one
// it re-arms within the advanced span runs in the same call.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		var next *fakeTimer
		for _, t := range c.timers {
			if t.pending && !t.when.After(end) && (next == nil || t.when.Before(next.when)) {
				next = t
			}
		}
		if next == nil {
			c.now = end
			c.mu.Unlock()
			return
		}
		next.pending, c.now = false, next.when
		c.mu.Unlock()
		next.f()
		c.mu.Lock()
	}
}

func (t *fakeTimer) Reset(d time.Duration) bool { return t.set(d, true) }
func (t *fakeTimer) Stop() bool                 { return t.set(0, false) }

func (t *fakeTimer) set(d time.Duration, pending bool) bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	was := t.pending
	t.when, t.pending = t.c.now.Add(max(d, 0)), pending
	return was
}
