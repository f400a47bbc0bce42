package kv

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rntree/internal/pmem"
)

// watched runs open with a watchdog: a panic or a hang is reported as a test
// failure instead of taking the test binary down.
func watched(t *testing.T, tag string, open func() error) error {
	t.Helper()
	type result struct {
		err      error
		panicked any
	}
	done := make(chan result, 1)
	go func() {
		var r result
		defer func() {
			r.panicked = recover()
			done <- r
		}()
		r.err = open()
	}()
	select {
	case r := <-done:
		if r.panicked != nil {
			t.Fatalf("%s: Open panicked: %v", tag, r.panicked)
		}
		return r.err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Open hung", tag)
		return nil
	}
}

// openWatched is OpenArenas on one rebooted image, watched. It returns Open's
// error and the arena's traffic counters when Open returned.
func openWatched(t *testing.T, tag string, img []uint64) (pmem.Stats, error) {
	t.Helper()
	var stats pmem.Stats
	err := watched(t, tag, func() error {
		a, err := pmem.Recover(img, pmem.Config{})
		if err != nil {
			return err
		}
		_, err = OpenArenas([]*pmem.Arena{a}, Options{})
		stats = a.Stats()
		return err
	})
	return stats, err
}

// TestOpenGarbageSuperblock: every word Open dereferences or trusts — the
// root pointers, each word of the one-line superblock (magic, chunk size,
// newest chunk) and a chunk's next pointer — is overwritten with hostile
// values in an otherwise sound image, the magic also with the previous
// format's and the two chain words with null, which leaves records the
// index reaches outside the chain. Open must answer ErrCorrupt: no panic in
// the arena's bounds check, no endless chain walk, no misleading ErrFull.
// Every rejection happens before kv's first write to the image.
func TestOpenGarbageSuperblock(t *testing.T) {
	s, err := New(Options{ArenaSize: 1 << 20, ChunkSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("some value bytes")); err != nil {
			t.Fatal(err)
		}
	}
	p := &s.parts[0]
	sb := p.arena.Read8(rootStoreOff)
	if p.headOff != sb+sbHeadOff {
		t.Fatalf("newest-chunk word at %#x, want superblock word %#x", p.headOff, sb+sbHeadOff)
	}
	type word struct {
		name string
		off  uint64
	}
	words := []word{{"rootStoreOff", rootStoreOff}, {"rootReplOff", rootReplOff}}
	for w := uint64(0); w <= sbHeadOff; w += 8 {
		words = append(words, word{fmt.Sprintf("superblock+%d", w), sb + w})
	}
	head := p.arena.Read8(p.headOff)
	if p.arena.Read8(head+chunkNextOff) == pmem.NullOff {
		t.Fatal("the log holds a single chunk; the chain-hop case needs two")
	}
	words = append(words, word{"chunk next", head + chunkNextOff})

	// One row per hostile image: the word poked and its value.
	type row struct {
		word
		v uint64
	}
	var rows []row
	for _, w := range words {
		// Out of bounds twice over, all ones, misaligned, and the word's own
		// offset — in bounds and aligned, and where the word is a chain
		// pointer a self-cycle only the hop budget stops.
		for _, v := range []uint64{1 << 40, 1 << 50, ^uint64(0), 4100, w.off} {
			rows = append(rows, row{w, v})
		}
	}
	// The previous format's magic, and a chain cut short: records the index
	// reaches would sit in space the heap hands out again.
	rows = append(rows, row{word{"magic", sb + sbMagicOff}, storeMagic - 1},
		row{word{"newest chunk", p.headOff}, pmem.NullOff},
		row{word{"chunk next", head + chunkNextOff}, pmem.NullOff})

	img := s.Snapshot()[0]
	if _, err := openWatched(t, "pristine", img); err != nil {
		t.Fatalf("pristine image: %v", err)
	}
	poke := func(off, v uint64) []uint64 {
		cp := append([]uint64(nil), img...)
		cp[off/pmem.WordSize] = v
		return cp
	}
	// A null store pointer fails kv's first check, so its traffic is what the
	// layers below kv (heap and forest recovery) cost on this image; a
	// rejection that matches it wrote nothing of kv's own.
	untouched, _ := openWatched(t, "null store pointer", poke(rootStoreOff, pmem.NullOff))
	for _, r := range rows {
		tag := fmt.Sprintf("%s = %#x", r.name, r.v)
		stats, err := openWatched(t, tag, poke(r.off, r.v))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open returned %v, want ErrCorrupt", tag, err)
		}
		if stats != untouched {
			t.Errorf("%s: Open wrote before rejecting: arena traffic %+v, want %+v", tag, stats, untouched)
		}
	}
}

// TestOpenGarbageTreePointers: the words the layers under kv follow on the
// way in — the tree's head-leaf word, a leaf's next, the forest binding
// word — hold hostile values in one image of a two-partition store, and so
// do two pointers that name a block another owner reports: a leaf's next
// naming the kv superblock line, the value log's first chunk pointer naming
// a leaf. Open must answer ErrCorrupt: no
// panic in the arena's bounds check, no leaf walk that never returns, and
// the images it was handed are not written.
func TestOpenGarbageTreePointers(t *testing.T) {
	s, err := New(Options{ArenaSize: 1 << 20, ChunkSize: 512, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("some value bytes")); err != nil {
			t.Fatal(err)
		}
	}
	// Root-line words 0 and 6 (internal/core: head leaf; internal/forest:
	// the partition binding).
	const treeHeadOff, forestBindOff = 0, 48
	p := &s.parts[1]
	leaf := p.arena.Read8(treeHeadOff)
	rows := []struct {
		name   string
		off, v uint64
	}{
		{"tree root head", treeHeadOff, 1 << 40},
		{"tree root head", treeHeadOff, 12345},
		{"first leaf's next", leaf, 1 << 40},
		{"first leaf's next", leaf, leaf},
		{"first leaf's next", leaf, p.arena.Read8(rootStoreOff)},
		{"forest binding", forestBindOff, 1 << 40},
		{"first chunk pointer", p.headOff, leaf},
	}
	imgs := s.Snapshot()
	if _, err := Open(imgs, Options{}); err != nil {
		t.Fatalf("pristine images: %v", err)
	}
	for _, r := range rows {
		tag := fmt.Sprintf("%s = %#x", r.name, r.v)
		in := [][]uint64{imgs[0], append([]uint64(nil), imgs[1]...)}
		in[1][r.off/pmem.WordSize] = r.v
		want := [][]uint64{imgs[0], append([]uint64(nil), in[1]...)}
		err := watched(t, tag, func() error {
			_, err := Open(in, Options{})
			return err
		})
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, pmem.ErrBadHeap) {
			t.Errorf("%s: Open returned %v, want ErrCorrupt (no ErrBadHeap underneath)", tag, err)
		}
		if !reflect.DeepEqual(in, want) {
			t.Errorf("%s: Open wrote to the images it was handed", tag)
		}
	}
}
