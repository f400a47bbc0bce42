package core

import (
	"testing"
	"testing/quick"

	"rntree/internal/pmem"
)

func TestSlotCodecRoundTrip(t *testing.T) {
	f := func(n uint8, raw [63]uint8) bool {
		var s slotArray
		s.n = int(n % 64)
		for i := 0; i < s.n; i++ {
			s.idx[i] = raw[i] % 64
		}
		var line [pmem.LineSize]byte
		s.encode(&line)
		got := decodeSlot(&line, 64)
		if got.n != s.n {
			return false
		}
		for i := 0; i < s.n; i++ {
			if got.idx[i] != s.idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSlotClampsGarbage(t *testing.T) {
	// Garbage lines (e.g. read racily during a split) must never yield
	// out-of-range counts or indices.
	f := func(line [pmem.LineSize]byte, capa uint8) bool {
		c := int(capa%61) + 4 // capacity in [4,64]
		s := decodeSlot(&line, c)
		if s.n > c-1 {
			return false
		}
		for i := 0; i < s.n; i++ {
			if int(s.idx[i]) >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotInsertRemoveInverse(t *testing.T) {
	// removeAt(insertAt(s, pos, e), pos) == s for any valid pos.
	f := func(n uint8, raw [63]uint8, posRaw uint8, e uint8) bool {
		var s slotArray
		s.n = int(n % 62)
		for i := 0; i < s.n; i++ {
			s.idx[i] = raw[i] % 64
		}
		pos := 0
		if s.n > 0 {
			pos = int(posRaw) % (s.n + 1)
		}
		ins := s.insertAt(pos, e%64)
		if ins.n != s.n+1 || ins.idx[pos] != e%64 {
			return false
		}
		back := ins.removeAt(pos)
		if back.n != s.n {
			return false
		}
		for i := 0; i < s.n; i++ {
			if back.idx[i] != s.idx[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlotReplaceAt(t *testing.T) {
	var s slotArray
	s.n = 3
	s.idx = [63]uint8{5, 6, 7}
	r := s.replaceAt(1, 42)
	if r.n != 3 || r.idx[0] != 5 || r.idx[1] != 42 || r.idx[2] != 7 {
		t.Fatalf("replaceAt wrong: %v", r.idx[:3])
	}
	if s.idx[1] != 6 {
		t.Fatal("replaceAt mutated the original")
	}
}

func TestLeafSizeAndOffsets(t *testing.T) {
	if imageSize(64) != 3*64+64*16 {
		t.Fatalf("imageSize(64) = %d", imageSize(64))
	}
	if imageSize(64)%pmem.LineSize != 0 {
		t.Fatal("leaf size not line aligned")
	}
	if kvEntryOff(1000, 0) != 1000+kvOff {
		t.Fatal("kvEntryOff base wrong")
	}
	if kvEntryOff(0, 4)%pmem.LineSize != 0 {
		t.Fatal("entry 4 should start a fresh line")
	}
}
