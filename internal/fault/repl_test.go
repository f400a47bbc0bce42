package fault

import (
	"testing"

	"rntree/internal/pmem"
)

// Machine-wide crash of the replicated pair: every persist site on either
// node — including the replica-apply persists running inside the primary's
// commit hook — must recover, after the backlog catch-up, to a single
// prefix-consistent cut served identically by both nodes.
func TestExploreReplPairAllSites(t *testing.T) {
	rep := mustExplore(t, &ReplTarget{}, KVWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 120 {
		t.Fatalf("only %d sites — two-node workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("kv+repl: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// Killing only the primary, at each of its persist sites: the surviving
// replica must hold every acked write, promote cleanly, and serve a probe
// write — and the dead primary's own images must still recover to a
// prefix-consistent cut.
func TestExplorePrimaryKillAllSites(t *testing.T) {
	rep := mustExplore(t, &PrimaryKillTarget{}, KVWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 60 {
		t.Fatalf("only %d sites — workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("primary-kill: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// Killing only the replica, mid-apply: the live primary must be unperturbed
// and every replica crash image must heal back to the primary's state via
// the backlog catch-up.
func TestExploreReplicaKillAllSites(t *testing.T) {
	rep := mustExplore(t, &ReplicaKillTarget{}, KVWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 40 {
		t.Fatalf("only %d sites — replica apply path too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("replica-kill: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// Crashing inside the promotion cutover: the packed epoch/role word cannot
// tear, so every image reads back as fully the old identity or fully the
// new one, contents untouched.
func TestExplorePromotionAllSites(t *testing.T) {
	rep := mustExplore(t, &PromoteTarget{}, PromoteWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 1 {
		t.Fatalf("no promotion sites counted")
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("promote: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// The one-node kill targets are seeded like every other target: same seed ⇒
// identical crash images, so a CI violation replays from its logged seed.
func TestFailoverSeededDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, EvictProb: 0.5, Torn: true, MaxSites: 25}
	a := mustExplore(t, &PrimaryKillTarget{}, KVWorkload(), cfg)
	b := mustExplore(t, &PrimaryKillTarget{}, KVWorkload(), cfg)
	if a.ImageHash != b.ImageHash || a.Sites != b.Sites || a.Images != b.Images {
		t.Fatalf("same seed diverged: %#x/%d/%d vs %#x/%d/%d",
			a.ImageHash, a.Sites, a.Images, b.ImageHash, b.Sites, b.Images)
	}
}

// ---------------------------------------------------------------------------
// The survivor check must catch a lost write: a link that drops one shipped
// record leaves the replica without a write the primary acked. The dead
// primary's images are all fine, so only the survivor check can see it.

// lossyPrimaryKill is the primary-kill target over a link that drops the
// eighth shipped record: KVWorkload's insert of key 7, which no later op
// touches.
type lossyPrimaryKill struct {
	PrimaryKillTarget
}

func (t *lossyPrimaryKill) Reset() ([]*pmem.Arena, Model, error) {
	arenas, base, err := t.PrimaryKillTarget.Reset()
	if err != nil {
		return nil, nil, err
	}
	shipped, replica := 0, t.replica
	t.primary.SetCommitHook(func(part int, lsn uint64, kind uint8, key, val []byte) {
		if shipped++; shipped == 8 {
			return
		}
		if err := replica.ReplApply(part, lsn, kind, key, val); err != nil {
			panic(err)
		}
	})
	return arenas, base, nil
}

func TestPrimaryKillLostWriteCaught(t *testing.T) {
	rep := mustExplore(t, &lossyPrimaryKill{}, KVWorkload(), Config{Seed: 1, MaxSites: 40})
	survivor := 0
	for _, v := range rep.Violations {
		if v.Variant != "survivor" {
			t.Fatalf("dead primary's image flagged, not the survivor: %s", v)
		}
		survivor++
	}
	if survivor == 0 {
		t.Fatal("replica missing an acked write not caught by the survivor check")
	}
	t.Logf("caught at %d of %d sites, first: %s", survivor, rep.Explored+1, rep.Violations[0])
}
