package kv

import (
	"fmt"
	"math/rand"
	"testing"

	"rntree/internal/pmem"
)

// TestCrashFuzzDurableStore crashes the store at random persist boundaries
// (with random dirty-line eviction) during a randomized workload and checks
// that recovery yields exactly the committed operations, possibly plus the
// single in-flight one — the kv layer inherits RNTree's durable
// linearizability because records are persisted before they become
// reachable.
func TestCrashFuzzDurableStore(t *testing.T) {
	crashFuzzStore(t, Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 14}, nil)
}

// TestCrashFuzzCollisionChains re-runs the crash fuzzer with a degenerate
// hash (every key lands in one of seven chains) so that crash points land
// inside multi-key hash-chain updates, and with tiny chunks so they also
// land inside newChunk's chunk-link and newest-chunk persists.
func TestCrashFuzzCollisionChains(t *testing.T) {
	crashFuzzStore(t, Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 12}, collide(7))
}

// TestCrashFuzzPartitioned runs the crash fuzzer over a four-partition
// store: the power loss snapshots every partition arena at the same
// instant, so recovery must reassemble a consistent store from the whole
// set even though only one partition holds the in-flight operation.
func TestCrashFuzzPartitioned(t *testing.T) {
	crashFuzzStore(t, Options{ArenaSize: 64 << 20, MaxSegments: 1, ChunkSize: 1 << 13, Partitions: 4}, nil)
}

func crashFuzzStore(t *testing.T, opts Options, hash func([]byte) uint64) {
	for trial := int64(0); trial < 15; trial++ {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if hash != nil {
			s.hash = hash
		}
		rng := rand.New(rand.NewSource(trial))
		const ops = 250
		crashPhase := rng.Intn(ops * 6)

		committed := map[string]string{}
		var before, after map[string]string
		var imgs [][]uint64
		phase := 0
		var inflight func(m map[string]string)

		arenas := s.Arenas()
		snap := func() {
			if imgs != nil || phase != crashPhase {
				phase++
				return
			}
			phase++
			// Power loss hits every partition at once: capture the whole
			// arena set, not just the one holding the in-flight persist.
			imgs = make([][]uint64, len(arenas))
			for i, a := range arenas {
				imgs[i] = a.CrashImage(rng, 0.4)
			}
			before = map[string]string{}
			for k, v := range committed {
				before[k] = v
			}
			after = map[string]string{}
			for k, v := range committed {
				after[k] = v
			}
			if inflight != nil {
				inflight(after)
			}
		}
		for _, a := range arenas {
			a.SetHooks(&pmem.Hooks{
				BeforePersist: func(_, _ uint64) { snap() },
				AfterPersist:  func(_, _ uint64) { snap() },
			})
		}

		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("key-%d", rng.Intn(60))
			v := fmt.Sprintf("val-%d-%d", trial, i)
			if rng.Intn(4) == 3 {
				if _, ok := committed[k]; !ok {
					inflight = nil
					continue
				}
				inflight = func(m map[string]string) { delete(m, k) }
				if err := s.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(committed, k)
			} else {
				inflight = func(m map[string]string) { m[k] = v }
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				committed[k] = v
			}
		}
		for _, a := range arenas {
			a.SetHooks(nil)
		}
		if imgs == nil {
			imgs = s.Snapshot()
			before, after = committed, committed
		}

		// opts.ChunkSize deliberately not forwarded: recovery reads the
		// geometry from the persisted superblocks.
		s2, err := Open(imgs, Options{})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		if hash != nil {
			s2.hash = hash
		}
		got := map[string]string{}
		s2.Range(func(k, v []byte) bool {
			got[string(k)] = string(v)
			return true
		})
		if !strMapsEqual(got, before) && !strMapsEqual(got, after) {
			t.Fatalf("trial %d: recovered store matches neither model (got %d keys, before %d, after %d)",
				trial, len(got), len(before), len(after))
		}
		// Recovered store accepts new writes.
		if err := s2.Put([]byte("post"), []byte("crash")); err != nil {
			t.Fatalf("trial %d: post-crash put: %v", trial, err)
		}
	}
}

func strMapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
