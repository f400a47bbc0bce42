package kv

import (
	"runtime"
	"sync/atomic"
)

// grace is a partition's reclamation grace period: a two-phase reader count.
// Every lock-free reader of the partition's chunks — lookup, Range,
// ReplBacklog's scan — enters it before it reads a tree pointer and exits once
// it holds copies of what it read. Compact cuts chunks out of the chain with
// every tree pointer already moved off them, then waits: it flips the phase,
// so readers arriving later count in the other one, and spins until the old
// phase drains. No reader still in it can be inside a cut chunk afterwards, so
// the chunks are freed at once. A reader section never takes the partition
// lock, which the waiter holds.
//
// Each phase's count is spread over graceSlots cache lines, picked by the
// reader's key hash, and the epoch sits on a line of its own: readers on
// different cores mostly write different lines and only read the epoch's.
type grace struct {
	_       [64]byte
	epoch   atomic.Uint64 // its low bit is the phase new readers join
	_       [56]byte
	readers [2][graceSlots]graceCount
}

const graceSlots = 8

type graceCount struct {
	n atomic.Int64
	_ [56]byte
}

// enter joins the current phase in slot h's count and returns that count for
// exit. A reader that loads the epoch just before a flip and counts itself in
// the old phase after the waiter saw that count drain re-reads the epoch,
// backs out and joins the new phase; one that counted itself in time is
// waited for.
func (g *grace) enter(h uint64) *atomic.Int64 {
	for {
		e := g.epoch.Load()
		c := &g.readers[e&1][h%graceSlots].n
		c.Add(1)
		if g.epoch.Load() == e {
			return c
		}
		c.Add(-1)
	}
}

func (g *grace) exit(c *atomic.Int64) { c.Add(-1) }

// wait returns once every reader that entered before the call has exited.
// Callers are serialised by the partition lock.
func (g *grace) wait() {
	old := &g.readers[(g.epoch.Add(1)-1)&1]
	for i := range old {
		for old[i].n.Load() != 0 {
			runtime.Gosched()
		}
	}
}
