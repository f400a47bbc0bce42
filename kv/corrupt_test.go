package kv

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
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
// root pointers, each validated superblock word, the chain-head word and a
// chunk's next pointer — is overwritten with hostile values in an otherwise
// sound image. Open must answer ErrCorrupt: no panic in the arena's bounds
// check, no endless chain walk, no misleading ErrFull. The three superseded
// superblock magics, and every value-log count a build that sharded the log
// inside a partition could have persisted, get the typed unsupported-format
// error naming what was found; a count no build wrote is corrupt — as does a
// v4 image holding what the oldest builds wrote into the four words this
// build retired (three in the heap header, one in the superblock). Every
// rejection happens before kv's first write to the image.
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
	sb := p.sbOff
	type word struct {
		name string
		off  uint64
	}
	words := []word{{"rootStoreOff", rootStoreOff}, {"rootReplOff", rootReplOff}}
	for w := uint64(0); w <= sbNsegsOff; w += 8 {
		words = append(words, word{fmt.Sprintf("superblock+%d", w), sb + w})
	}
	words = append(words, word{"chain head", p.headOff})
	head := p.arena.Read8(p.headOff)
	if p.arena.Read8(head+chunkNextOff) == pmem.NullOff {
		t.Fatal("the log holds a single chunk; the chain-hop case needs two")
	}
	words = append(words, word{"chunk next", head + chunkNextOff})

	// One row per hostile image: the word poked, its value, the error Open
	// must wrap and, for the typed format errors, what the message names.
	type row struct {
		word
		v     uint64
		want  error
		names string
	}
	var rows []row
	for _, w := range words {
		// Out of bounds twice over, all ones, misaligned, and the word's own
		// offset — in bounds and aligned, and where the word is a chain
		// pointer a self-cycle only the hop budget stops.
		for _, v := range []uint64{1 << 40, 1 << 50, ^uint64(0), 4100, w.off} {
			rows = append(rows, row{w, v, ErrCorrupt, ""})
		}
	}
	for old := uint64(storeMagic) - 3; old < storeMagic; old++ {
		rows = append(rows, row{word{"magic", sb + sbMagicOff}, old, ErrUnsupportedFormat, fmt.Sprintf("%#x", old)})
	}
	for n := uint64(2); n <= 64; n <<= 1 {
		rows = append(rows, row{word{"log count", sb + sbLogsOff}, n, ErrUnsupportedFormat, fmt.Sprintf("%d value-log shards", n)})
	}
	for _, n := range []uint64{0, 3, 48, 65, 128} {
		rows = append(rows, row{word{"log count", sb + sbLogsOff}, n, ErrCorrupt, ""})
	}

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
		if !errors.Is(err, r.want) || !strings.Contains(err.Error(), r.names) {
			t.Errorf("%s: Open returned %v, want %v naming %q", tag, err, r.want, r.names)
		}
		if stats != untouched {
			t.Errorf("%s: Open wrote before rejecting: arena traffic %+v, want %+v", tag, stats, untouched)
		}
	}

	// Builds before routed keys wrote v4 superblocks, the oldest of them with
	// a simulated mapping address per segment (header words +64 base, +72
	// previous base, +80 state: 0 clean, 1 remapped and not yet confirmed)
	// and the chain head re-encoded against it in superblock word 96. Such an
	// image is refused like any v4 image, naming its magic, before kv writes.
	const hdr, oldBase, movedBase = pmem.RootSize, 0x00007c0000000000, 0x0000610000000000
	const v4 = storeMagic - 1
	for state, words := range [][4]uint64{
		{oldBase, 0, 0, oldBase + p.headOff},
		{movedBase, oldBase, 1, oldBase + p.headOff},
	} {
		cp := poke(sb+sbMagicOff, v4)
		for i, off := range []uint64{hdr + 64, hdr + 72, hdr + 80, sb + sbRetiredOff} {
			cp[off/pmem.WordSize] = words[i]
		}
		tag := fmt.Sprintf("v4 image with an earlier build's retired words (state %d)", state)
		stats, err := openWatched(t, tag, cp)
		if !errors.Is(err, ErrUnsupportedFormat) || !strings.Contains(err.Error(), fmt.Sprintf("%#x", v4)) {
			t.Errorf("%s: Open returned %v, want ErrUnsupportedFormat naming %#x", tag, err, v4)
		}
		if stats != untouched {
			t.Errorf("%s: Open wrote before rejecting: arena traffic %+v, want %+v", tag, stats, untouched)
		}
	}
}

// TestOpenGarbageTreePointers: the pointers the layers under kv follow on the
// way in — the tree's head-leaf and undo-chain words, a leaf's next, the
// forest superblock word, the heap's undo status — hold hostile values in
// one image of a two-partition store. Open must answer ErrCorrupt (the heap's
// own rejections are ErrBadHeap underneath): no panic in the arena's bounds
// check, no leaf walk that never returns, and the images it was handed are
// not written.
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
	// Root-line words 0, 1 and 6 (internal/core: head leaf, undo-chain head;
	// internal/forest: superblock) and the undo line of the heap header.
	const treeHeadOff, treeUndoOff, forestSbOff, heapUndoOff = 0, 8, 48, pmem.RootSize + 4*pmem.LineSize
	leaf := s.parts[1].arena.Read8(treeHeadOff)
	rows := []struct {
		name   string
		off, v uint64
		heap   bool
	}{
		{"tree root head", treeHeadOff, 1 << 40, false},
		{"tree root head", treeHeadOff, 12345, false},
		{"tree undo-chain head", treeUndoOff, 1 << 40, false},
		{"first leaf's next", leaf, 1 << 40, false},
		{"first leaf's next", leaf, leaf, false},
		{"forest superblock pointer", forestSbOff, 1 << 40, false},
		{"heap undo status", heapUndoOff, 7, true},
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
		if !errors.Is(err, ErrCorrupt) || errors.Is(err, pmem.ErrBadHeap) != r.heap {
			t.Errorf("%s: Open returned %v, want ErrCorrupt (ErrBadHeap underneath: %v)", tag, err, r.heap)
		}
		if !reflect.DeepEqual(in, want) {
			t.Errorf("%s: Open wrote to the images it was handed", tag)
		}
	}
}
