package fault

import (
	"fmt"

	"rntree/internal/pmem"
	"rntree/internal/repl"
	"rntree/kv"
)

// ---------------------------------------------------------------------------
// two-node replicated kv target (machine-wide crash)

// replOpts are the per-node store options for the replicated targets: two
// partitions so crash sites land while the other partition — and the whole
// other node — is quiescent, and tiny chunks for frequent chunk-link
// persists.
func replOpts() kv.Options {
	return kv.Options{
		ArenaSize:  8 << 20,
		ChunkSize:  512,
		Partitions: 2,
	}
}

// replPair is a primary/replica store pair coupled by the in-process
// replication link: every commit on the primary is applied and persisted on
// the replica before the mutating call returns — the wait-for-replica-
// durable ack mode with the network collapsed to a function call, which is
// exactly the invariant the crash oracles check.
type replPair struct {
	primary, replica *kv.Store
	link             *repl.Link
}

func newReplPair() (*replPair, error) {
	p, err := kv.New(replOpts())
	if err != nil {
		return nil, err
	}
	r, err := kv.New(replOpts())
	if err != nil {
		return nil, err
	}
	// Seed the persisted roles the way a freshly provisioned pair starts:
	// both at epoch 1. These persists run at reset time, before any crash
	// hooks are installed, so they are not crash sites themselves (the
	// promotion explorer crashes inside role changes separately).
	if err := p.SetReplState(1, repl.Primary); err != nil {
		return nil, err
	}
	if err := r.SetReplState(1, repl.Replica); err != nil {
		return nil, err
	}
	return &replPair{primary: p, replica: r, link: repl.NewLink(p, r)}, nil
}

// apply drives one workload op through the primary; the link ships it to
// the replica synchronously. Compaction runs on the primary only — the
// replica compacts on its own schedule in a real deployment, and keeping it
// out of the workload keeps the persist sequence deterministic.
func (pr *replPair) apply(op Op) error {
	var err error
	switch op.Kind {
	case OpInsert, OpUpdate:
		err = pr.primary.Put([]byte(kvKey(op.K)), []byte(kvValue(op.K, op.V)))
	case OpDelete:
		err = pr.primary.Delete([]byte(kvKey(op.K)))
	case OpCompact:
		err = pr.primary.Compact()
	default:
		return fmt.Errorf("kv+repl target: unsupported op %s", op.Kind)
	}
	if err != nil {
		return err
	}
	return pr.link.Err()
}

func rangeModel(s *kv.Store) Model {
	got := Model{}
	s.Range(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	return got
}

// ReplTarget crashes the whole machine — primary and replica arenas
// snapshotted at the same instant — at every persist/fence site either node
// executes, including the replica-apply persists that run inside the
// primary's commit hook. Recovery reopens both nodes, heals the replica
// from the primary's backlog (the resubscribe-from-watermarks path), and
// demands they converge to the same prefix-consistent cut.
type ReplTarget struct {
	pair *replPair
}

func (t *ReplTarget) Name() string { return "kv+repl" }

func (t *ReplTarget) Reset() ([]*pmem.Arena, Model, error) {
	pair, err := newReplPair()
	if err != nil {
		return nil, nil, err
	}
	t.pair = pair
	arenas := append([]*pmem.Arena{}, pair.primary.Arenas()...)
	arenas = append(arenas, pair.replica.Arenas()...)
	return arenas, Model{}, nil
}

func (t *ReplTarget) Apply(op Op) error { return t.pair.apply(op) }

func (t *ReplTarget) ApplyModel(m Model, op Op) { kvApplyModel(m, op) }

func (t *ReplTarget) Recover(imgs [][]uint64) (Model, error) {
	n := replOpts().Partitions
	if len(imgs) != 2*n {
		return nil, fmt.Errorf("kv+repl target: %d images, want %d", len(imgs), 2*n)
	}
	p, err := kv.Open(imgs[:n], replOpts())
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	r, err := kv.Open(imgs[n:], replOpts())
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	// The replica resubscribes from its durable watermarks; the primary's
	// log doubles as the retransmit buffer. LSN idempotency makes re-shipped
	// records harmless, and the replica can never be ahead of the primary:
	// records ship only after the primary's commit completes.
	if err := repl.CatchUp(p, r); err != nil {
		return nil, fmt.Errorf("catch-up: %w", err)
	}
	pm, rm := rangeModel(p), rangeModel(r)
	if !modelsEqual(pm, rm) {
		return nil, fmt.Errorf("replica diverged from primary after catch-up:%s", modelsDiff(rm, pm))
	}
	return pm, nil
}
