package kv

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rntree/internal/pmem"
)

// openWatched runs Open on one image with a watchdog: a panic or a hang is
// reported as a test failure instead of taking the test binary down.
func openWatched(t *testing.T, tag string, img []uint64) error {
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
		_, r.err = Open([][]uint64{img}, Options{})
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

// TestOpenGarbageSuperblock: every word Open dereferences or trusts — the
// root pointers, each validated superblock word, each shard-table head and
// a chunk's next pointer — is overwritten with hostile values in an
// otherwise sound image. Open must answer ErrCorrupt: no panic in the
// arena's bounds check, no endless chain walk, no misleading ErrFull. The
// three superseded superblock magics get the typed unsupported-format error.
func TestOpenGarbageSuperblock(t *testing.T) {
	s, err := New(Options{ArenaSize: 1 << 20, ChunkSize: 512, Shards: 2})
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
	for w := uint64(0); w <= sbTableSimOff; w += 8 {
		words = append(words, word{fmt.Sprintf("superblock+%d", w), sb + w})
	}
	for i := range p.shards {
		words = append(words, word{fmt.Sprintf("shard %d head", i), p.shards[i].tabOff})
	}
	head := p.arena.Read8(p.shards[0].tabOff)
	if p.arena.Read8(head+chunkNextOff) == pmem.NullOff {
		t.Fatal("shard 0 holds a single chunk; the chain-hop case needs two")
	}
	words = append(words, word{"chunk next", head + chunkNextOff})

	img := s.Snapshot()[0]
	if err := openWatched(t, "pristine", img); err != nil {
		t.Fatalf("pristine image: %v", err)
	}
	poke := func(off, v uint64) []uint64 {
		cp := append([]uint64(nil), img...)
		cp[off/pmem.WordSize] = v
		return cp
	}
	for _, w := range words {
		// Out of bounds twice over, all ones, misaligned, and the word's own
		// offset — in bounds and aligned, and where the word is a chain
		// pointer a self-cycle only the hop budget stops.
		for _, v := range []uint64{1 << 40, 1 << 50, ^uint64(0), 4100, w.off} {
			tag := fmt.Sprintf("%s = %#x", w.name, v)
			if err := openWatched(t, tag, poke(w.off, v)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: Open returned %v, want ErrCorrupt", tag, err)
			}
		}
	}
	for old := uint64(storeMagic) - 3; old < storeMagic; old++ {
		err := openWatched(t, fmt.Sprintf("magic %#x", old), poke(sb+sbMagicOff, old))
		if !errors.Is(err, ErrUnsupportedFormat) || !strings.Contains(err.Error(), fmt.Sprintf("%#x", old)) {
			t.Errorf("magic %#x: Open returned %v, want ErrUnsupportedFormat naming the magic", old, err)
		}
	}
}
