package htm

import (
	"reflect"
	"sync"
	"testing"

	"rntree/internal/pmem"
)

// lineShape is one line op next to the Run body it must equal.
type lineShape struct {
	name string
	run  func(r *Region, a, b uint64, buf *[pmem.LineSize]byte)
	op   func(r *Region, a, b uint64, buf *[pmem.LineSize]byte)
}

var lineShapes = []lineShape{
	{
		name: "load",
		run: func(r *Region, a, _ uint64, buf *[pmem.LineSize]byte) {
			_ = r.Run(func(tx *Tx) { tx.LoadLine(a, buf) })
		},
		op: func(r *Region, a, _ uint64, buf *[pmem.LineSize]byte) { r.LoadLine(a, buf) },
	},
	{
		name: "store",
		run: func(r *Region, a, _ uint64, buf *[pmem.LineSize]byte) {
			_ = r.Run(func(tx *Tx) { tx.StoreLine(a, buf) })
		},
		op: func(r *Region, a, _ uint64, buf *[pmem.LineSize]byte) { r.StoreLine(a, buf) },
	},
	{
		name: "copy",
		run: func(r *Region, a, b uint64, _ *[pmem.LineSize]byte) {
			_ = r.Run(func(tx *Tx) {
				var l [pmem.LineSize]byte
				tx.LoadLine(a, &l)
				tx.StoreLine(b, &l)
			})
		},
		op: func(r *Region, a, b uint64, _ *[pmem.LineSize]byte) { r.CopyLine(a, b) },
	},
}

// lineOpsRegion is a region over a heap whose first data lines carry
// distinct words, so a copy or store that lands on the wrong line shows.
func lineOpsRegion(cfg Config) *Region {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 16}), cfg)
	for off := uint64(pmem.DataStart); off < pmem.DataStart+16*pmem.LineSize; off += pmem.WordSize {
		r.Arena().Write8(off, off*0x9e3779b97f4a7c15)
	}
	r.ResetStats()
	r.Arena().ResetStats()
	return r
}

// TestLineOpsMatchRun drives each line op and the Run body it stands for
// through the same sequence on two regions of one Config and seed: both
// must leave the same arena bytes, read the same lines and count the same
// Stats, on the hardware path, under injected aborts, forced fallback, and
// a one-line budget that sends every two-line copy through a capacity
// abort to the fallback.
func TestLineOpsMatchRun(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"spurious", Config{SpuriousAbortProb: 0.5, InjectSeed: 7}},
		{"forcefallback", Config{ForceFallback: true}},
		{"maxlines1", Config{MaxLines: 1}},
	}
	const ops = 64
	for _, c := range configs {
		for _, sh := range lineShapes {
			t.Run(c.name+"/"+sh.name, func(t *testing.T) {
				ra, rb := lineOpsRegion(c.cfg), lineOpsRegion(c.cfg)
				for i := uint64(0); i < ops; i++ {
					a := pmem.DataStart + i%16*pmem.LineSize
					b := pmem.DataStart + (i*7+3)%16*pmem.LineSize
					if b == a {
						b = pmem.DataStart + (i+1)%16*pmem.LineSize
					}
					var la, lb [pmem.LineSize]byte
					for j := range la {
						la[j] = byte(i*31 + uint64(j))
					}
					lb = la
					sh.run(ra, a, b, &la)
					sh.op(rb, a, b, &lb)
					if la != lb {
						t.Fatalf("op %d: line buffers differ: Run %x, line op %x", i, la, lb)
					}
				}
				if sa, sb := ra.Stats(), rb.Stats(); sa != sb {
					t.Fatalf("htm Stats differ: Run %+v, line op %+v", sa, sb)
				}
				if sa, sb := ra.Arena().Stats(), rb.Arena().Stats(); sa != sb {
					t.Fatalf("pmem Stats differ: Run %+v, line op %+v", sa, sb)
				}
				for off := uint64(0); off < ra.Arena().Size(); off += pmem.WordSize {
					if va, vb := ra.Arena().Read8(off), rb.Arena().Read8(off); va != vb {
						t.Fatalf("arena word %d differs: Run %#x, line op %#x", off, va, vb)
					}
				}
				st := rb.Stats()
				if st.Commits != ops {
					t.Fatalf("commits %d, want %d", st.Commits, ops)
				}
				switch {
				case c.cfg.ForceFallback && st.Fallbacks != ops:
					t.Fatalf("ForceFallback: %d fallbacks, want %d", st.Fallbacks, ops)
				case c.cfg.SpuriousAbortProb > 0 && st.SpuriousAborts == 0:
					t.Fatal("no spurious abort injected")
				case c.cfg.MaxLines == 1 && sh.name == "copy" && (st.CapacityAborts != ops || st.Fallbacks != ops):
					t.Fatalf("MaxLines 1: %d capacity aborts, %d fallbacks, want %d each", st.CapacityAborts, st.Fallbacks, ops)
				}
			})
		}
	}
}

// TestLineOpsNoTornLines has writers StoreLine alternating full-line
// patterns over one line while readers LoadLine it and CopyLine it to a
// line of their own: no reader may see a line mixing two patterns, on the
// hardware path or with injected aborts pushing operations to the fallback.
func TestLineOpsNoTornLines(t *testing.T) {
	for _, cfg := range []Config{{}, {SpuriousAbortProb: 0.3, MaxRetries: 2}} {
		r := NewRegion(pmem.New(pmem.Config{Size: 1 << 16}), cfg)
		const (
			shared  = pmem.DataStart
			writers = 2
			readers = 2
			iters   = 2000
		)
		uniform := func(l *[pmem.LineSize]byte) bool {
			for i := range l {
				if l[i] != l[0] {
					return false
				}
			}
			return true
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var l [pmem.LineSize]byte
				for i := 0; i < iters; i++ {
					for j := range l {
						l[j] = byte(1 + w*2 + i%2)
					}
					r.StoreLine(shared, &l)
				}
			}(w)
		}
		for k := 0; k < readers; k++ {
			wg.Add(1)
			go func(own uint64) {
				defer wg.Done()
				var l [pmem.LineSize]byte
				for i := 0; i < iters; i++ {
					r.LoadLine(shared, &l)
					if !uniform(&l) {
						t.Errorf("LoadLine saw a torn line: %x", l)
						return
					}
					r.CopyLine(shared, own)
					r.LoadLine(own, &l)
					if !uniform(&l) {
						t.Errorf("CopyLine produced a torn line: %x", l)
						return
					}
				}
			}(shared + uint64(k+1)*pmem.LineSize)
		}
		wg.Wait()
	}
}

// TestLineOpsAllocateNothing: the line ops are the tree's per-operation
// transactions, so none of them may reach the heap.
func TestLineOpsAllocateNothing(t *testing.T) {
	r := lineOpsRegion(Config{})
	var l [pmem.LineSize]byte
	for _, sh := range lineShapes {
		if n := testing.AllocsPerRun(100, func() { sh.op(r, pmem.DataStart, pmem.DataStart+pmem.LineSize, &l) }); n != 0 {
			t.Errorf("%s: %v allocs per op", sh.name, n)
		}
	}
}

// TestRegionCounterLayout keeps the Stats counters, which every commit
// increments, at least a line away from every other field of Region —
// fallbackSeq, injectThreshold and locks, which every transaction reads,
// among them — and from whatever follows a Region in memory. The offsets are
// reflect's (what unsafe.Offsetof returns), taken over every field so that
// one added later is caught wherever it goes.
func TestRegionCounterLayout(t *testing.T) {
	st := reflect.TypeOf(Region{})
	bf, _ := st.FieldByName("stats")
	start, end := bf.Offset, bf.Offset+bf.Type.Size()
	for _, n := range []string{"fallbackSeq", "injectThreshold", "locks"} {
		if _, ok := st.FieldByName(n); !ok {
			t.Fatalf("Region has no field %s", n)
		}
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		fend := f.Offset + f.Type.Size()
		switch {
		case f.Name == "_" || f.Name == "stats":
		case fend <= start && start-fend < pmem.LineSize:
			t.Errorf("Region.%s ends %d bytes before the counters", f.Name, start-fend)
		case f.Offset >= end && f.Offset-end < pmem.LineSize:
			t.Errorf("Region.%s starts %d bytes after the counters", f.Name, f.Offset-end)
		case fend > start && f.Offset < end:
			t.Errorf("Region.%s overlaps the counters", f.Name)
		}
	}
	if st.Size()-end < pmem.LineSize {
		t.Errorf("Region ends %d bytes after the counters", st.Size()-end)
	}
}
