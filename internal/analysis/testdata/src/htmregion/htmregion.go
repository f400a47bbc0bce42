// Package htmregion is the htmsafe golden fixture: closures passed to
// htm.Region.Run with seeded aborts (flushes, blocking operations,
// allocation) next to the legal transactional patterns.
package htmregion

import (
	"fmt"

	"rntree/internal/htm"
	"rntree/internal/pmem"
	"rntree/internal/sync2"
)

// flushInside is the canonical seeded bug: a cache-line flush inside a
// transaction always aborts it (§2.2).
func flushInside(r *htm.Region) {
	r.Run(func(tx *htm.Tx) {
		tx.Store8(0, 1)
		tx.Persist(0, 8) // want `Tx.Persist inside HTM region: a cache-line flush always aborts`
	})
}

// directArena bypasses the transactional read/write sets.
func directArena(r *htm.Region, a *pmem.Arena) {
	r.Run(func(tx *htm.Tx) {
		a.Write8(0, 1)  // want `direct arena Write8 inside HTM region bypasses transactional buffering`
		a.Persist(0, 8) // want `arena Persist inside HTM region: flushes and fences guarantee a transaction abort`
	})
}

// blocking operations inside a transaction livelock or abort.
func blocking(r *htm.Region, ch chan int) {
	r.Run(func(tx *htm.Tx) {
		ch <- 1 // want `channel send inside HTM region blocks`
		<-ch    // want `channel receive inside HTM region blocks`
	})
}

func locking(r *htm.Region, mu *sync2.SpinLock) {
	r.Run(func(tx *htm.Tx) {
		mu.Lock() // want `sync2 Lock inside HTM region blocks`
		mu.Unlock()
	})
}

// alloc: heap allocation can trigger a GC cycle mid-transaction.
func alloc(r *htm.Region, n int) {
	r.Run(func(tx *htm.Tx) {
		_ = make([]byte, n) // want `make inside HTM region allocates`
	})
}

func spawn(r *htm.Region) {
	r.Run(func(tx *htm.Tx) {
		go func() {}() // want `goroutine launch inside HTM region`
	})
}

// external: calls into unvetted packages may block or allocate.
func external(r *htm.Region) {
	r.Run(func(tx *htm.Tx) {
		fmt.Sprint("x") // want `call into fmt inside HTM region may block or allocate`
	})
}

// namedBody: the pass follows a named function passed as the region body.
func namedBody(r *htm.Region) {
	r.Run(body)
}

func body(tx *htm.Tx) {
	tx.Persist(0, 8) // want `Tx.Persist inside HTM region: a cache-line flush always aborts`
}

// good is the legal pattern: only the transactional API, no allocation.
func good(r *htm.Region) {
	r.Run(func(tx *htm.Tx) {
		v := tx.Load8(0)
		tx.Store8(8, v+1)
	})
}

// helperChain: the walk is transitive through target-package bodies; the
// diagnostic lands on the offending instruction inside the callee.
func helperChain(r *htm.Region, a *pmem.Arena) {
	r.Run(func(tx *htm.Tx) {
		deepFlush(a)
	})
}

func deepFlush(a *pmem.Arena) {
	a.Fence() // want `arena Fence inside HTM region: flushes and fences guarantee a transaction abort`
}

// nestedLineOp: a Region line op is a whole transaction, so calling one
// inside a Run body nests transactions.
func nestedLineOp(r *htm.Region) {
	var l [pmem.LineSize]byte
	r.Run(func(tx *htm.Tx) {
		r.LoadLine(0, &l) // want `nested htm.Region.LoadLine inside HTM region`
		tx.StoreLine(64, &l)
	})
}
