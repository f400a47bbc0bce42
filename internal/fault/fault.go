// Package fault is a deterministic fault-injection subsystem for the
// simulated-NVM stack. Its centrepiece is a crash-point explorer (Explore)
// that, instead of sampling random crash points the way the crash fuzzers
// do, *enumerates* every persistent-instruction site a workload executes
// and crashes the program at each one in turn — synthesizing the crash
// image exactly as the hardware model allows it to exist at that point
// (nothing of the in-flight persist durable, a torn subset of its lines
// durable, extra dirty lines evicted early) — then runs recovery and checks
// a durability oracle: the recovered contents must equal a prefix-consistent
// cut of the issued operations.
//
// NV-Tree and FPTree argue their failure-atomicity windows by hand-listing
// them; this package lists ours mechanically, for every layer from pmem up
// through the kv store (including value-log compaction and the reopen of
// a rebooted image, whose crash windows live inside recovery itself).
//
// Everything is seeded: the same Config against the same Target replays the
// same crash images byte for byte (Report.ImageHash), so a violation found
// in CI reproduces from its logged seed and site index.
//
// The companion fault mode — spurious HTM abort storms — lives in
// internal/htm (Config.SpuriousAbortProb) and is exercised by the
// concurrent-tree tests.
package fault

import (
	"fmt"

	"rntree/internal/pmem"
)

// OpKind enumerates the workload operations a Target can apply.
type OpKind uint8

const (
	// OpInsert adds a key that must not exist (tree Insert, kv Put).
	OpInsert OpKind = iota
	// OpUpdate overwrites a key that must exist (tree Update, kv Put).
	OpUpdate
	// OpDelete removes a key that must exist.
	OpDelete
	// OpCompact runs value-log compaction (kv only) — semantically a no-op.
	OpCompact
	// OpOpen opens a pre-loaded image (kv reopen target) — semantically a
	// no-op; its persist sites are recovery's own.
	OpOpen
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpCompact:
		return "compact"
	case OpOpen:
		return "open"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one workload operation. K and V are abstract; each target maps them
// onto its own key/value representation (the tree uses them directly, the
// kv targets format them into byte strings).
type Op struct {
	Kind OpKind
	K, V uint64
}

// Model is the oracle's view of the target's contents: target-encoded keys
// to target-encoded values. Each target uses the same encoding in
// ApplyModel and Recover, so the explorer only ever compares maps.
type Model = map[string]string

// Target adapts one layer of the stack to the explorer. Implementations
// must be deterministic: replaying the same ops on a fresh Reset must
// execute the identical sequence of persistent instructions, because the
// explorer aligns crash sites across runs by ordinal (a single global
// ordinal across all of the target's arenas).
type Target interface {
	// Name identifies the target in reports.
	Name() string
	// Reset builds a fresh instance and returns its arenas (one per
	// partition for forest-backed targets, a single-element slice
	// otherwise) plus the model of contents already durable at reset time
	// (non-empty only for targets that pre-load state, e.g. the kv reopen
	// target). The explorer installs its hooks *after* Reset
	// returns, so format-time persists are not crash sites.
	Reset() ([]*pmem.Arena, Model, error)
	// Apply executes op against the live instance.
	Apply(op Op) error
	// ApplyModel applies op's semantics to m.
	ApplyModel(m Model, op Op)
	// Recover reopens the crash image set (one image per arena, in Reset
	// order), verifies structural invariants, and returns the recovered
	// contents.
	Recover(imgs [][]uint64) (Model, error)
}

func cloneModel(m Model) Model {
	c := make(Model, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func modelsEqual(a, b Model) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// modelsDiff renders a short sample of the mismatch between got and want.
func modelsDiff(got, want Model) string {
	s := ""
	n := 0
	for k, v := range want {
		if gv, ok := got[k]; !ok || gv != v {
			s += fmt.Sprintf(" want[%s]=%s got=%q;", k, v, gv)
			if n++; n >= 4 {
				return s + " ..."
			}
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			s += fmt.Sprintf(" extra[%s]=%s;", k, v)
			if n++; n >= 8 {
				return s + " ..."
			}
		}
	}
	return s
}
