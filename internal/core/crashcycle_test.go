package core

import (
	"math/rand"
	"slices"
	"testing"

	"rntree/internal/pmem"
)

// TestCrashCycleFreeSpace runs one tree through 300 crash/recover cycles,
// each cut at a seeded random persist site, splits included. After every
// recovery the heap counts in use exactly the leaves the chain reaches, and
// handing out every free line below the mark and scribbling over it leaves
// the tree equal to the model: a crash leaks nothing, and recovery frees
// nothing live.
func TestCrashCycleFreeSpace(t *testing.T) {
	const cycles = 300
	rng := rand.New(rand.NewSource(41))
	opts := Options{LeafCapacity: 8}
	tr, err := New(pmem.New(pmem.Config{Size: 4 << 20}), opts)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	var keys []uint64
	reclaimed := 0
	for c := 0; c < cycles; c++ {
		a := tr.arena
		site, persists := 1+rng.Intn(64), 0
		var img []uint64
		a.SetHooks(&pmem.Hooks{BeforePersist: func(_, _ uint64) {
			if persists++; persists == site {
				img = a.CrashImage(rng, 0.3)
			}
		}})
		// The op in flight at the crash may land or not; every other key
		// must read back exactly.
		var key uint64
		var old, now uint64
		var had, has bool
		for img == nil {
			key, has = rng.Uint64()%(1<<30)+1, true
			i := -1
			if r := rng.Intn(10); r < 5 && len(keys) > 0 {
				i = rng.Intn(len(keys))
				key, has = keys[i], r >= 2 // 20 % removes, 30 % updates
			}
			old, had = model[key]
			if now = 0; has {
				now = rng.Uint64()
				err = tr.Upsert(key, now)
				model[key] = now
				if !had {
					keys = append(keys, key)
				}
			} else {
				err = tr.Remove(key)
				delete(model, key)
				keys[i] = keys[len(keys)-1]
				keys = keys[:len(keys)-1]
			}
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
		a.SetHooks(nil)

		rec, err := pmem.Recover(img, pmem.Config{})
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if tr, err = CrashRecover(rec, opts); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if v, ok := tr.Find(key); ok != has || v != now {
			if ok != had || v != old {
				t.Fatalf("cycle %d: key %d reads %d,%v; want %d,%v or %d,%v", c, key, v, ok, old, had, now, has)
			}
			if model[key], has = old, had; !had {
				delete(model, key)
			}
		}
		leaves := uint64(0)
		for off := rec.Read8(rootHeadOff); off != pmem.NullOff; off = rec.Read8(off + hdrNextOff) {
			leaves++
		}
		if got, want := rec.InUse(), leaves*tr.lsize; got != want {
			t.Fatalf("cycle %d: heap counts %d bytes in use, the chain reaches %d", c, got, want)
		}
		scribble := scribbleFree(t, rec)
		reclaimed += len(scribble)
		checkModel(t, c, tr, model)
		for _, off := range scribble {
			rec.Free(off, pmem.LineSize)
		}
		keys = keys[:0]
		for k := range model {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	if reclaimed == 0 {
		t.Fatal("no recovery found free space below the mark")
	}
	t.Logf("%d cycles: %d leaves, %d free lines below the mark summed over recoveries", cycles, tr.LeafCount(), reclaimed)
}

// scribbleFree hands out every free line below the bump mark of a
// single-segment heap and fills it with garbage, failing the test if the
// allocator must bump first; it returns the lines for the caller to free.
func scribbleFree(t *testing.T, a *pmem.Arena) []uint64 {
	t.Helper()
	mark := a.Bump()
	var offs []uint64
	for a.InUse() < mark-pmem.DataStart {
		off, err := a.Alloc(pmem.LineSize)
		if err != nil || off >= mark {
			t.Fatalf("%d bytes below the mark %d neither in use nor free: Alloc = %d, %v",
				mark-pmem.DataStart-a.InUse(), mark, off, err)
		}
		for w := uint64(0); w < pmem.LineSize; w += pmem.WordSize {
			a.Write8(off+w, ^off^w)
		}
		offs = append(offs, off)
	}
	return offs
}

func checkModel(t *testing.T, cycle int, tr *Tree, model map[uint64]uint64) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("cycle %d: %v", cycle, err)
	}
	n := 0
	tr.Scan(0, 0, func(k, v uint64) bool {
		if want, ok := model[k]; !ok || v != want {
			t.Fatalf("cycle %d: key %d reads %d, model %d,%v", cycle, k, v, want, ok)
		}
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("cycle %d: %d keys, model %d", cycle, n, len(model))
	}
}
