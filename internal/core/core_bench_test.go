package core

import (
	"math/rand"
	"testing"

	"rntree/internal/pmem"
	"rntree/internal/tree"
)

type kvrec = tree.KV

func benchTree(b *testing.B, opts Options) *Tree {
	b.Helper()
	a := pmem.New(pmem.Config{Size: 512 << 20, Latency: pmem.DefaultLatency})
	tr, err := New(a, opts)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkTreeInsertSeq(b *testing.B) {
	tr := benchTree(b, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeInsertRandom(b *testing.B) {
	tr := benchTree(b, Options{})
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Upsert(rng.Uint64()>>1, uint64(i))
	}
}

func BenchmarkTreeFind(b *testing.B) {
	for _, dual := range []bool{false, true} {
		name := "base"
		if dual {
			name = "dualslot"
		}
		b.Run(name, func(b *testing.B) {
			tr := benchTree(b, Options{DualSlot: dual})
			const n = 100_000
			for i := uint64(0); i < n; i++ {
				if err := tr.Insert(i, i); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Find(rng.Uint64() % n)
			}
		})
	}
}

func BenchmarkTreeScan100(b *testing.B) {
	tr := benchTree(b, Options{DualSlot: true})
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(i, i); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Scan(rng.Uint64()%n, 100, func(_, _ uint64) bool { return true })
	}
}

func BenchmarkTreeUpdateHotLeaf(b *testing.B) {
	// Update churn on one leaf measures the amortized compaction cost.
	tr := benchTree(b, Options{})
	for i := uint64(0); i < 16; i++ {
		if err := tr.Insert(i, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Update(uint64(i)%16, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	b.ReportAllocs()
	const n = 100_000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := pmem.New(pmem.Config{Size: 512 << 20, Latency: pmem.DefaultLatency})
		rs := make([]kvrec, n)
		for j := range rs {
			rs[j] = kvrec{Key: uint64(j) * 2, Value: uint64(j)}
		}
		b.StartTimer()
		if _, err := BulkLoad(a, Options{}, rs); err != nil {
			b.Fatal(err)
		}
	}
}
