package fault

import (
	"fmt"

	"rntree/internal/pmem"
	"rntree/internal/repl"
	"rntree/kv"
)

// ---------------------------------------------------------------------------
// replicated kv targets: the pair crashed whole, or one node of it

// replPair is a primary/replica store pair coupled by the in-process
// replication link: every commit on the primary is applied and persisted on
// the replica before the mutating call returns — the wait-for-replica-
// durable ack mode with the network collapsed to a function call, which is
// exactly the invariant the crash oracles check. Both nodes run
// kvPartsOpts: two partitions, so crash sites land while the other
// partition — and, for the one-node kills, the whole other node — is
// quiescent, and tiny chunks for frequent chunk-link persists.
type replPair struct {
	kvModel
	primary, replica *kv.Store
	link             *repl.Link
}

func newReplPair() (*replPair, error) {
	p, err := kv.New(kvPartsOpts())
	if err != nil {
		return nil, err
	}
	r, err := kv.New(kvPartsOpts())
	if err != nil {
		return nil, err
	}
	// Seed the persisted roles the way a freshly provisioned pair starts:
	// both at epoch 1. These persists run at reset time, before any crash
	// hooks are installed, so they are not crash sites themselves (the
	// promote target crashes inside a role change of its own).
	if err := p.SetReplState(1, repl.Primary); err != nil {
		return nil, err
	}
	if err := r.SetReplState(1, repl.Replica); err != nil {
		return nil, err
	}
	return &replPair{primary: p, replica: r, link: repl.NewLink(p, r)}, nil
}

// promoteEpoch is the epoch OpPromote cuts the replica over to.
const promoteEpoch = 2

// Apply drives one workload op through the primary; the link ships it to
// the replica synchronously. Compaction runs on the primary only — the
// replica compacts on its own schedule in a real deployment, and keeping it
// out of the workload keeps the persist sequence deterministic. OpPromote
// promotes the replica.
func (pr *replPair) Apply(op Op) error {
	var err error
	switch op.Kind {
	case OpInsert, OpUpdate:
		err = pr.primary.Put([]byte(kvKey(op.K)), []byte(kvValue(op.K, op.V)))
	case OpDelete:
		err = pr.primary.Delete([]byte(kvKey(op.K)))
	case OpCompact:
		err = pr.primary.Compact()
	case OpPromote:
		err = pr.replica.SetReplState(promoteEpoch, repl.Primary)
	default:
		return fmt.Errorf("replicated target: unsupported op %s", op.Kind)
	}
	if err != nil {
		return err
	}
	return pr.link.Err()
}

// ReplTarget crashes the whole machine — primary and replica arenas
// snapshotted at the same instant — at every persist/fence site either node
// executes, including the replica-apply persists that run inside the
// primary's commit hook. Recovery reopens both nodes, heals the replica
// from the primary's backlog (the resubscribe-from-watermarks path), and
// demands they converge to the same prefix-consistent cut.
type ReplTarget struct{ *replPair }

func (t *ReplTarget) Name() string { return "kv+repl" }

func (t *ReplTarget) Reset() ([]*pmem.Arena, Model, error) {
	var err error
	if t.replPair, err = newReplPair(); err != nil {
		return nil, nil, err
	}
	return append(t.primary.Arenas(), t.replica.Arenas()...), Model{}, nil
}

func (t *ReplTarget) Recover(imgs [][]uint64) (Model, error) {
	n := kvPartsOpts().Partitions
	if len(imgs) != 2*n {
		return nil, fmt.Errorf("kv+repl target: %d images, want %d", len(imgs), 2*n)
	}
	p, err := kv.Open(imgs[:n], kvPartsOpts())
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	r, err := kv.Open(imgs[n:], kvPartsOpts())
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	// The replica resubscribes from its durable watermarks; the primary's
	// log doubles as the retransmit buffer. LSN idempotency makes re-shipped
	// records harmless, and the replica can never be ahead of the primary:
	// records ship only after the primary's commit completes.
	return catchUp(p, r)
}

// catchUp heals replica from primary's backlog and returns their contents,
// failing unless the two then agree.
func catchUp(primary, replica *kv.Store) (Model, error) {
	if err := repl.CatchUp(primary, replica); err != nil {
		return nil, fmt.Errorf("catch-up: %w", err)
	}
	pm, rm := rangeModel(primary), rangeModel(replica)
	if !modelsEqual(pm, rm) {
		return nil, fmt.Errorf("replica diverged from primary after catch-up:%s", modelsDiff(rm, pm))
	}
	return pm, nil
}

// The kill targets crash ONE node of the pair while the other keeps
// running: Reset hands the explorer only the doomed node's arenas, so the
// survivor is never unwound mid-persist nor imaged, the way a real
// single-node failure leaves its peer. The dead node's images recover to a
// prefix-consistent cut like any store's; CheckSurvivors checks the live
// node once per crash site.

// PrimaryKillTarget kills the primary at each of its persist/fence sites.
// The surviving replica must hold every completed write (acked: the link is
// the wait-for-replica-durable mode), promote, and serve a probe write.
type PrimaryKillTarget struct{ *replPair }

func (t *PrimaryKillTarget) Name() string { return "repl/primary-kill" }

func (t *PrimaryKillTarget) Reset() ([]*pmem.Arena, Model, error) {
	var err error
	if t.replPair, err = newReplPair(); err != nil {
		return nil, nil, err
	}
	return t.primary.Arenas(), Model{}, nil
}

func (t *PrimaryKillTarget) Recover(imgs [][]uint64) (Model, error) {
	return kvRecover(imgs, kvPartsOpts())
}

// CheckSurvivors: the in-flight op was never acked (the primary died inside
// its own persists, before or after shipping), so the replica legitimately
// sits at before or after — and, promoted to a superseding epoch, it serves
// writes at once: the client-driven failover path.
func (t *PrimaryKillTarget) CheckSurvivors(before, after Model) error {
	if got := rangeModel(t.replica); !modelsEqual(got, before) && !modelsEqual(got, after) {
		return fmt.Errorf("acked write lost on surviving replica:%s", modelsDiff(got, before))
	}
	epoch, _ := t.replica.ReplState()
	if err := t.replica.SetReplState(epoch+1, repl.Primary); err != nil {
		return fmt.Errorf("survivor cannot promote: %w", err)
	}
	if err := t.replica.Put([]byte("probe-key"), []byte("post-failover")); err != nil {
		return fmt.Errorf("promoted survivor cannot write: %w", err)
	}
	if v, err := t.replica.Get([]byte("probe-key")); err != nil || string(v) != "post-failover" {
		return fmt.Errorf("promoted survivor read back %q, %v", v, err)
	}
	return nil
}

// ReplicaKillTarget kills the replica at each of its persist/fence sites,
// all of which run inside ReplApply, mid-ship. Every crash image must also
// heal from the live primary's backlog, the applier's resubscribe path; the
// primary itself must be unperturbed.
type ReplicaKillTarget struct{ *replPair }

func (t *ReplicaKillTarget) Name() string { return "repl/replica-kill" }

func (t *ReplicaKillTarget) Reset() ([]*pmem.Arena, Model, error) {
	var err error
	if t.replPair, err = newReplPair(); err != nil {
		return nil, nil, err
	}
	return t.replica.Arenas(), Model{}, nil
}

// Recover returns the recovered replica's contents before the catch-up,
// the cut the oracle checks.
func (t *ReplicaKillTarget) Recover(imgs [][]uint64) (Model, error) {
	s, err := kv.Open(imgs, kvPartsOpts())
	if err != nil {
		return nil, err
	}
	m := rangeModel(s)
	if _, err := catchUp(t.primary, s); err != nil {
		return nil, err
	}
	return m, nil
}

// CheckSurvivors: the primary committed the in-flight op before shipping
// it (records ship from the commit hook, after the append and index
// persists), so losing the replica mid-apply leaves it exactly at after.
func (t *ReplicaKillTarget) CheckSurvivors(_, after Model) error {
	if got := rangeModel(t.primary); !modelsEqual(got, after) {
		return fmt.Errorf("live primary perturbed by replica death:%s", modelsDiff(got, after))
	}
	return nil
}

// PromoteTarget pre-loads KVWorkload through the pair and crashes the
// replica inside the promotion cutover, its one op. The packed epoch/role
// word makes the cutover a single atomic persist: every image must read
// back as entirely the old identity or entirely the new one, with contents
// untouched (OpPromote is a no-op on the model).
type PromoteTarget struct{ *replPair }

func (t *PromoteTarget) Name() string { return "repl/promote" }

// PromoteWorkload is the promote target's one op.
func PromoteWorkload() []Op { return []Op{{Kind: OpPromote}} }

func (t *PromoteTarget) Reset() ([]*pmem.Arena, Model, error) {
	var err error
	if t.replPair, err = newReplPair(); err != nil {
		return nil, nil, err
	}
	base := Model{}
	for _, op := range KVWorkload() {
		if err := t.Apply(op); err != nil {
			return nil, nil, err
		}
		t.ApplyModel(base, op)
	}
	return t.replica.Arenas(), base, nil
}

func (t *PromoteTarget) Recover(imgs [][]uint64) (Model, error) {
	s, err := kv.Open(imgs, kvPartsOpts())
	if err != nil {
		return nil, err
	}
	epoch, role := s.ReplState()
	if (epoch != 1 || role != repl.Replica) && (epoch != promoteEpoch || role != repl.Primary) {
		return nil, fmt.Errorf("promotion cutover tore: recovered epoch=%d role=%d (want 1/replica or %d/primary)",
			epoch, role, promoteEpoch)
	}
	return rangeModel(s), nil
}
