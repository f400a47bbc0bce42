package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"rntree/internal/core"
	"rntree/internal/pmem"
)

// TestCrashCycleFreeSpace runs one two-partition store through 300
// crash/recover cycles, each cut at a seeded random persist site of puts,
// deletes and compactions. After every recovery each heap counts in use
// exactly the blocks its owners reach — kv superblock, chunks, leaves — and handing out every free line below
// the mark and scribbling over it leaves the store equal to the model: a
// crash leaks no chunk, and a compaction's freed chunks come back.
func TestCrashCycleFreeSpace(t *testing.T) {
	const cycles = 300
	rng := rand.New(rand.NewSource(41))
	probe := pmem.New(pmem.Config{Size: 1 << 16})
	if _, err := core.New(probe, core.Options{}); err != nil {
		t.Fatal(err)
	}
	leafBytes := probe.InUse()
	s, err := New(Options{ArenaSize: 4 << 20, MaxSegments: 1, ChunkSize: 512, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	model := map[string][]byte{}
	reclaimed := 0
	for c := 0; c < cycles; c++ {
		site, persists := 1+rng.Intn(64), 0
		var imgs [][]uint64
		for _, a := range s.Arenas() {
			a.SetHooks(&pmem.Hooks{BeforePersist: func(_, _ uint64) {
				if persists++; persists == site {
					for _, a := range s.Arenas() {
						imgs = append(imgs, a.CrashImage(rng, 0.3))
					}
				}
			}})
		}
		// The op in flight at the crash may land or not; every other key
		// must read back exactly.
		var key string
		var old, now []byte
		for imgs == nil {
			key = fmt.Sprintf("key-%03d", rng.Intn(400))
			old, now = model[key], nil
			switch r := rng.Intn(20); {
			case r == 0:
				err = s.Compact()
			case r < 6 && old != nil:
				err = s.Delete([]byte(key))
			default:
				now = make([]byte, 8+rng.Intn(120))
				rng.Read(now)
				err = s.Put([]byte(key), now)
			}
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			if now != nil {
				model[key] = now
			} else {
				delete(model, key)
			}
		}

		if s, err = Open(imgs, Options{}); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if v, err := s.Get([]byte(key)); !bytes.Equal(v, now) {
			if !bytes.Equal(v, old) {
				t.Fatalf("cycle %d: %s reads %x, %v; want %x or %x", c, key, v, err, old, now)
			}
			if model[key] = old; old == nil {
				delete(model, key)
			}
		}
		var scribbled [][]uint64
		for i := range s.parts {
			p := &s.parts[i]
			chunks := uint64(0)
			for off := p.arena.Read8(p.headOff); off != pmem.NullOff; off = p.arena.Read8(off + chunkNextOff) {
				chunks++
			}
			want := sbSize + chunks*p.chunkSz + uint64(p.tree.LeafCount())*leafBytes
			if got := p.arena.InUse(); got != want {
				t.Fatalf("cycle %d: partition %d counts %d bytes in use, its owners reach %d", c, i, got, want)
			}
			scribbled = append(scribbled, scribbleFree(t, p.arena))
			reclaimed += len(scribbled[i])
		}
		n := 0
		s.Range(func(k, v []byte) bool {
			if want, ok := model[string(k)]; !ok || !bytes.Equal(v, want) {
				t.Fatalf("cycle %d: %s reads %x, model %x", c, k, v, want)
			}
			n++
			return true
		})
		if n != len(model) {
			t.Fatalf("cycle %d: %d keys, model %d", c, n, len(model))
		}
		for i, offs := range scribbled {
			for _, off := range offs {
				s.parts[i].arena.Free(off, pmem.LineSize)
			}
		}
	}
	if reclaimed == 0 {
		t.Fatal("no recovery found free space below the mark")
	}
	t.Logf("%d cycles: %d keys, %d free lines below the mark summed over recoveries", cycles, len(model), reclaimed)
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
