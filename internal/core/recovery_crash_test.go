package core

import (
	"math/rand"
	"testing"

	"rntree/internal/pmem"
)

// TestRecoveryIsIdempotentUnderCrash crashes the machine *during crash
// recovery* (recovery itself issues persists while trimming the overlap of
// an interrupted split) and recovers again from the new image. Recovery must be
// idempotent: any prefix of its persists leaves an image from which a later
// recovery still yields the same consistent state.
func TestRecoveryIsIdempotentUnderCrash(t *testing.T) {
	for trial := int64(0); trial < 12; trial++ {
		rng := rand.New(rand.NewSource(trial))
		// Build a tree and crash it mid-split, right after the link, so
		// recovery has real work (and persists) to do.
		a := pmem.New(pmem.Config{Size: 32 << 20})
		tr, err := New(a, Options{LeafCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		committed := map[uint64]uint64{}
		var img []uint64
		splitPersists := 0
		a.SetHooks(&pmem.Hooks{AfterPersist: func(off, size uint64) {
			// Snapshot right after a link persist (the only one-word leaf
			// persist): the upper half sits in both leaves.
			if img == nil && size == pmem.WordSize && off >= pmem.DataStart {
				splitPersists++
				if splitPersists == int(trial%3)+1 {
					img = a.CrashImage(rng, 0.5)
				}
			}
		}})
		for i := uint64(0); i < 200 && img == nil; i++ {
			if err := tr.Upsert(i, i+1); err != nil {
				t.Fatal(err)
			}
			committed[i] = i + 1
		}
		a.SetHooks(nil)
		if img == nil {
			t.Skip("no split link persist observed")
		}
		// committed may include the op whose split was interrupted; the
		// checker below accepts prefix-or-prefix+1 like the main fuzzer by
		// trimming: every recovered key must map correctly and recovered
		// size within [len-1, len].
		check := func(rec *Tree, stage string) {
			if err := rec.CheckInvariants(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, stage, err)
			}
			n := 0
			rec.Scan(0, 0, func(k, v uint64) bool {
				if want, ok := committed[k]; !ok || v != want {
					t.Fatalf("trial %d %s: foreign record (%d,%d)", trial, stage, k, v)
				}
				n++
				return true
			})
			if n < len(committed)-1 || n > len(committed) {
				t.Fatalf("trial %d %s: recovered %d records, committed %d", trial, stage, n, len(committed))
			}
		}

		// First recovery, crashed at its trim persist: the trimmed slot
		// line is durable only if the eviction happened to write it back.
		a1 := reboot(t, img)
		var img2 []uint64
		a1.SetHooks(&pmem.Hooks{BeforePersist: func(off, size uint64) {
			if img2 == nil {
				img2 = a1.CrashImage(rng, 0.5)
			}
		}})
		rec1, err := CrashRecover(a1, Options{})
		a1.SetHooks(nil)
		if err != nil {
			t.Fatalf("trial %d: first recovery: %v", trial, err)
		}
		check(rec1, "first recovery")
		if img2 == nil {
			t.Fatalf("trial %d: recovery found no overlap to trim", trial)
		}
		// Second recovery from the crashed-recovery image.
		a2 := reboot(t, img2)
		rec2, err := CrashRecover(a2, Options{})
		if err != nil {
			t.Fatalf("trial %d: second recovery: %v", trial, err)
		}
		check(rec2, "second recovery")
		// And the re-recovered tree is writable.
		if err := rec2.Upsert(1_000_000, 1); err != nil {
			t.Fatalf("trial %d: post-recovery write: %v", trial, err)
		}
	}
}
