package main

import (
	"bytes"
	"testing"
)

// The same seed must give the same inputs, and a different seed different
// ones: a result is only comparable with another if their digests match.
func TestInputDigest(t *testing.T) {
	for _, wl := range workloads {
		a := generate(wl, 7, 1.0/64, 0.25, true)
		b := generate(wl, 7, 1.0/64, 0.25, true)
		c := generate(wl, 8, 1.0/64, 0.25, true)
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave digests %s and %s", wl.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", wl.name, a.digest)
		}
	}
}

// Two workloads given the same seed must still get different inputs.
func TestDigestDiffersByWorkload(t *testing.T) {
	seen := map[string]string{}
	for _, wl := range workloads {
		d := generate(wl, 1, 1.0/64, 0.25, true).digest
		if other, dup := seen[d]; dup {
			t.Errorf("%s and %s share digest %s", wl.name, other, d)
		}
		seen[d] = wl.name
	}
}

func TestValuesAreCheckable(t *testing.T) {
	in := generate(findWorkload("get_hot"), 3, 1.0/64, 0.25, true)
	buf := make([]byte, maxValSize)
	for _, size := range []int{valHdr, 128, 512, maxValSize} {
		v := bytes.Clone(in.fillValue(buf, 42, 9, size))
		if got, ok := in.checkValue(v, 42, size); !ok || got != 9 {
			t.Fatalf("size %d: round trip gave version %d ok=%v", size, got, ok)
		}
		if _, ok := in.checkValue(v, 43, size); ok {
			t.Errorf("size %d: value for key 42 verified as key 43", size)
		}
		if size > valHdr {
			// A body from another version must not verify under this header.
			other := bytes.Clone(in.fillValue(buf, 42, 10, size))
			copy(other[:valHdr], v[:valHdr])
			if _, ok := in.checkValue(other, 42, size); ok {
				t.Errorf("size %d: header of version 9 over body of version 10 verified", size)
			}
		}
		if _, ok := in.checkValue(v[:size-1], 42, size); ok {
			t.Errorf("size %d: truncated value verified", size)
		}
	}
}

// Read-back requests may only name a write that precedes them in the same
// stream, and every key-space write must go to a key its worker owns.
func TestStreamsAreWellFormed(t *testing.T) {
	for _, wl := range workloads {
		in := generate(wl, 5, 1.0/64, 0.25, true)
		workers := wl.workers()
		for w, s := range in.streams {
			var fresh [numOpKinds]uint32
			for i, o := range s {
				switch k := o.kind(); k {
				case opRead:
					if int(o.arg()) >= in.nkeys {
						t.Fatalf("%s stream %d op %d: read of key %d of %d", wl.name, w, i, o.arg(), in.nkeys)
					}
				case opWrite:
					if owner := w % workers; int(o.arg())%workers != owner || int(o.arg()) >= in.nkeys {
						t.Fatalf("%s stream %d op %d: write to key %d, not owned", wl.name, w, i, o.arg())
					}
				case opGetOwn:
					if o.arg() >= fresh[opPutFresh] {
						t.Fatalf("%s stream %d op %d: reads back put %d before it was issued", wl.name, w, i, o.arg())
					}
				case opHGet:
					if o.arg() >= fresh[opHSet] {
						t.Fatalf("%s stream %d op %d: reads back hset %d before it was issued", wl.name, w, i, o.arg())
					}
				default:
					if o.arg() != fresh[k] {
						t.Fatalf("%s stream %d op %d: fresh %s numbered %d, want %d", wl.name, w, i, opNames[k], o.arg(), fresh[k])
					}
					fresh[k]++
				}
			}
		}
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	const n = 1000
	r := &rng{s: 1}
	counts := make([]int, n)
	z := newZipf(n, 0.8)
	for i := 0; i < 200000; i++ {
		k := z.rank(r)
		if k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(0)/P(9) = 10^0.8 ~ 6.3 under zipf 0.8.
	if ratio := float64(counts[0]) / float64(counts[9]); ratio < 4.5 || ratio > 8.5 {
		t.Errorf("rank 0 drawn %.1fx as often as rank 9, want about 6.3x", ratio)
	}
	u := newZipf(n, 0)
	clear(counts)
	for i := 0; i < 200000; i++ {
		counts[u.rank(r)]++
	}
	if counts[0] > 2*counts[n-1]+100 {
		t.Errorf("uniform draw is skewed: rank 0 %d times, rank %d %d times", counts[0], n-1, counts[n-1])
	}
}

func TestTreeKeysAreDistinctAndInRange(t *testing.T) {
	in := generate(findWorkload("tree_ycsb_a"), 11, 1.0/16, 0.25, false)
	for i := 1; i < len(in.treeKeys); i++ {
		if in.treeKeys[i] <= in.treeKeys[i-1] {
			t.Fatalf("tree keys not strictly increasing at %d", i)
		}
	}
	for i, k := range in.treeKeys {
		if k == 0 || k>>63 != 0 {
			t.Fatalf("tree key %#x out of the tree's range", k)
		}
		if in.treeKeyOf(in.treeIndex[i]) != k {
			t.Fatalf("treeIndex[%d] does not map back to its key", i)
		}
	}
}
