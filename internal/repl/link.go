package repl

import (
	"fmt"

	"rntree/kv"
)

// In-process couplings between two stores, used by the fault explorer and
// tests. Unlike Node/Subscriber these involve no goroutines, channels or
// map iteration, so a linked pair replays a workload with a deterministic
// persist-instruction sequence — the property the crash-point explorer
// aligns sites by.

// Link couples primary → replica synchronously: every commit on primary is
// applied (and persisted) on replica before the mutating call returns.
// This is the wait-for-replica-durable ack mode collapsed to zero network:
// when a Put returns, the write is durable on BOTH stores, which is exactly
// the invariant the two-node fault exploration checks at every crash site.
type Link struct {
	primary, replica *kv.Store
	err              error // first apply failure (a harness error in replays)
}

// NewLink installs the coupling. Call Unlink to remove it.
func NewLink(primary, replica *kv.Store) *Link {
	l := &Link{primary: primary, replica: replica}
	primary.SetCommitHook(func(part int, lsn uint64, kind uint8, key, val []byte) {
		if l.err != nil {
			return
		}
		rec := [1]Record{{Part: part, LSN: lsn, Kind: kind, Key: key, Val: val}}
		if err := replica.ReplApply(rec[:]); err != nil {
			l.err = err
		}
	})
	return l
}

// Err returns the first shipped-apply failure, if any.
func (l *Link) Err() error { return l.err }

// Unlink removes the commit hook.
func (l *Link) Unlink() { l.primary.SetCommitHook(nil) }

// CatchUp replays primary's backlog above replica's watermarks into
// replica — the recovery-time healing step: after a crash, the replica
// resubscribes from its durable per-partition LSNs and converges to the
// primary's state. Compaction-surviving records are enough: the newest
// record per key (tombstones included on replicating stores) carries the
// highest LSN, so replay order converges keys correctly.
func CatchUp(primary, replica *kv.Store) error {
	if primary.Partitions() != replica.Partitions() {
		return fmt.Errorf("repl: catch-up across different partition counts (%d vs %d)",
			primary.Partitions(), replica.Partitions())
	}
	for part := 0; part < primary.Partitions(); part++ {
		var fail error
		err := primary.ReplBacklog(part, replica.ReplLSN(part),
			func(lsn uint64, kind uint8, key, val []byte) bool {
				rec := [1]Record{{Part: part, LSN: lsn, Kind: kind, Key: key, Val: val}}
				if err := replica.ReplApply(rec[:]); err != nil {
					fail = err
					return false
				}
				return true
			})
		if err == nil {
			err = fail
		}
		if err != nil {
			return err
		}
	}
	return nil
}
