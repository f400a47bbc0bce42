package fault

import (
	"fmt"
	"strconv"
	"testing"

	"rntree/internal/pmem"
)

func mustExplore(t *testing.T, tgt Target, ops []Op, cfg Config) *Report {
	t.Helper()
	rep, err := Explore(tgt, ops, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tgt.Name(), err)
	}
	return rep
}

// The tree workload (20 live keys at 7 entries/leaf ⇒ at least three
// leaves, so the split path necessarily runs) must survive a crash at every
// persist site, under eviction and torn multi-line persists, in both
// slot-array modes.
func TestExploreTreeAllSites(t *testing.T) {
	for _, dual := range []bool{false, true} {
		tgt := &TreeTarget{DualSlot: dual}
		rep := mustExplore(t, tgt, TreeWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
		if rep.Sites < 40 {
			t.Fatalf("%s: only %d sites — workload too shallow", tgt.Name(), rep.Sites)
		}
		if rep.Explored != rep.Sites {
			t.Fatalf("%s: explored %d of %d sites", tgt.Name(), rep.Explored, rep.Sites)
		}
		if !rep.Ok() {
			t.Fatalf("%s: %d violations, first: %s", tgt.Name(), len(rep.Violations), rep.Violations[0])
		}
		t.Logf("%s: %d sites, %d images, hash %#x", tgt.Name(), rep.Sites, rep.Images, rep.ImageHash)
	}
}

func TestExploreKVAllSites(t *testing.T) {
	rep := mustExplore(t, NewKVTarget(), KVWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 60 {
		t.Fatalf("only %d sites — workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("kv: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// The cached target runs the same store workload behind kv's DRAM hot-key
// cache: every crash site must recover to an image a fresh cache
// serves identically on the fill pass and the all-hits pass — the proof
// that the cache needs no persistence and recovery discards it cleanly.
func TestExploreCachedKVAllSites(t *testing.T) {
	rep := mustExplore(t, &CachedKVTarget{}, KVWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 60 {
		t.Fatalf("only %d sites — workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("kv+cache: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// The typed-object target: every crash site inside a multi-record intent
// commit (HSET/SADD/HDEL/SREM), the EXPIRE record write, and the expirer's
// reap composite must recover to all-or-nothing object contents, with no
// resurrected expired keys and headers agreeing with element records.
func TestExploreObjAllSites(t *testing.T) {
	rep := mustExplore(t, &ObjTarget{}, ObjWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 60 {
		t.Fatalf("only %d sites — workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("obj: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// The forest workload spreads splits/updates/deletes over two partition
// arenas; every crash site — counted globally across both — must recover
// to a consistent forest, in both slot-array modes.
func TestExploreForestAllSites(t *testing.T) {
	for _, dual := range []bool{false, true} {
		tgt := &ForestTarget{DualSlot: dual}
		rep := mustExplore(t, tgt, TreeWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
		if rep.Sites < 40 {
			t.Fatalf("%s: only %d sites — workload too shallow", tgt.Name(), rep.Sites)
		}
		if rep.Explored != rep.Sites {
			t.Fatalf("%s: explored %d of %d sites", tgt.Name(), rep.Explored, rep.Sites)
		}
		if !rep.Ok() {
			t.Fatalf("%s: %d violations, first: %s", tgt.Name(), len(rep.Violations), rep.Violations[0])
		}
		t.Logf("%s: %d sites, %d images, hash %#x", tgt.Name(), rep.Sites, rep.Images, rep.ImageHash)
	}
}

// The partitioned kv store: record appends, index updates and compaction
// cuts now interleave across two arenas, and recovery must rebuild both
// partitions from any machine-wide crash image set.
func TestExploreKVPartsAllSites(t *testing.T) {
	rep := mustExplore(t, NewKVPartsTarget(), KVWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 60 {
		t.Fatalf("only %d sites — workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("kv-parts: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// The heap allocator driven directly: every allocator-metadata persist
// site — undo-log arm, metadata writes inside the window, commit flips,
// bump advances, and the segment-append cutover — must leave an image that
// pmem.Recover accepts (header intact, CheckHeap holds) and that recovers
// the block directory to a pre- or post-op state under eviction and torn
// persists.
func TestExploreHeapAllSites(t *testing.T) {
	rep := mustExplore(t, &HeapTarget{}, HeapWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 60 {
		t.Fatalf("only %d sites — workload too shallow", rep.Sites)
	}
	if rep.Explored != rep.Sites {
		t.Fatalf("explored %d of %d sites", rep.Explored, rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("heap: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// Crashing inside recovery itself (Open of a rebooted two-partition image)
// must always leave an image that reopens to exactly the pre-loaded
// contents.
func TestExploreKVReopen(t *testing.T) {
	rep := mustExplore(t, NewKVReopenTarget(), KVReopenWorkload(), Config{Seed: 42, EvictProb: 0.4, Torn: true})
	if rep.Sites < 20 {
		t.Fatalf("only %d sites — recovery not exercised", rep.Sites)
	}
	if !rep.Ok() {
		t.Fatalf("%d violations, first: %s", len(rep.Violations), rep.Violations[0])
	}
	t.Logf("kv-reopen: %d sites, %d images, hash %#x", rep.Sites, rep.Images, rep.ImageHash)
}

// Same seed ⇒ byte-identical crash images (same ImageHash); a different
// seed draws different eviction/torn subsets. This is what makes a CI
// violation replayable from its logged seed.
func TestExploreSeededDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, EvictProb: 0.5, Torn: true}
	a := mustExplore(t, &TreeTarget{}, TreeWorkload(), cfg)
	b := mustExplore(t, &TreeTarget{}, TreeWorkload(), cfg)
	if a.ImageHash != b.ImageHash || a.Sites != b.Sites || a.Images != b.Images {
		t.Fatalf("same seed diverged: %#x/%d/%d vs %#x/%d/%d",
			a.ImageHash, a.Sites, a.Images, b.ImageHash, b.Sites, b.Images)
	}
	c := mustExplore(t, &TreeTarget{}, TreeWorkload(), Config{Seed: 8, EvictProb: 0.5, Torn: true})
	if c.ImageHash == a.ImageHash {
		t.Fatal("different seed produced identical images")
	}
}

func TestSampleSites(t *testing.T) {
	if got := sampleSites(5, 0); len(got) != 5 {
		t.Fatalf("uncapped: %v", got)
	}
	got := sampleSites(100, 10)
	if len(got) != 10 || got[0] != 0 || got[9] != 90 {
		t.Fatalf("capped: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("not strictly increasing: %v", got)
		}
	}
	if got := sampleSites(3, 10); len(got) != 3 {
		t.Fatalf("cap above n: %v", got)
	}
}

// ---------------------------------------------------------------------------
// The oracle must actually catch bugs: a toy store that persists its count
// word BEFORE the record it indexes (the classic reordering bug every
// design in PAPERS.md exists to avoid) has a one-persist window where the
// durable count points at an unpersisted record.

type toyTarget struct {
	broken bool
	arena  *pmem.Arena
	n      uint64
}

const (
	toyCountOff = pmem.DataStart
	toyRecBase  = pmem.DataStart + pmem.LineSize // one line per record
)

func (t *toyTarget) Name() string {
	if t.broken {
		return "toy-broken"
	}
	return "toy"
}

func (t *toyTarget) Reset() ([]*pmem.Arena, Model, error) {
	t.arena = pmem.New(pmem.Config{Size: 1 << 16})
	t.n = 0
	return []*pmem.Arena{t.arena}, Model{}, nil
}

func (t *toyTarget) Apply(op Op) error {
	if op.Kind != OpInsert {
		return fmt.Errorf("toy: unsupported op %s", op.Kind)
	}
	a, rec := t.arena, toyRecBase+t.n*pmem.LineSize
	a.Write8(rec, op.K)
	a.Write8(rec+8, op.V)
	a.Write8(toyCountOff, t.n+1)
	if t.broken {
		// WRONG: the index commit is durable before the record it names.
		a.Persist(toyCountOff, 8)
		a.Persist(rec, 16)
	} else {
		a.Persist(rec, 16)
		a.Persist(toyCountOff, 8)
	}
	t.n++
	return nil
}

func (t *toyTarget) ApplyModel(m Model, op Op) {
	m[strconv.FormatUint(op.K, 10)] = strconv.FormatUint(op.V, 10)
}

func (t *toyTarget) Recover(imgs [][]uint64) (Model, error) {
	a, err := pmem.Recover(imgs[0], pmem.Config{})
	if err != nil {
		return nil, err
	}
	got := Model{}
	for i := uint64(0); i < a.Read8(toyCountOff); i++ {
		rec := toyRecBase + i*pmem.LineSize
		got[strconv.FormatUint(a.Read8(rec), 10)] = strconv.FormatUint(a.Read8(rec+8), 10)
	}
	return got, nil
}

func toyWorkload() []Op {
	var ops []Op
	for i := uint64(1); i <= 5; i++ {
		ops = append(ops, Op{OpInsert, i, 10 * i})
	}
	return ops
}

func TestBrokenOrderingCaught(t *testing.T) {
	// The correct ordering passes every site — the oracle is not trigger-happy.
	rep := mustExplore(t, &toyTarget{}, toyWorkload(), Config{Seed: 1})
	if !rep.Ok() {
		t.Fatalf("correct ordering flagged: %s", rep.Violations[0])
	}
	// The broken ordering is caught (without eviction or tearing: pure
	// crash-point enumeration finds the window).
	rep = mustExplore(t, &toyTarget{broken: true}, toyWorkload(), Config{Seed: 1})
	if rep.Ok() {
		t.Fatal("broken persist ordering not caught by the explorer")
	}
	v := rep.Violations[0]
	t.Logf("caught: %s", v)
	if v.Variant != "pre" {
		t.Fatalf("expected a pre-image violation, got %q", v.Variant)
	}
}
