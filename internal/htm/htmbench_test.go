package htm

import (
	"testing"

	"rntree/internal/pmem"
)

func BenchmarkTxSnapshot(b *testing.B) {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 20}), Config{})
	var line [pmem.LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Run(func(tx *Tx) { tx.LoadLine(4096, &line) })
	}
}

func BenchmarkTxStoreLine(b *testing.B) {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 20}), Config{})
	var line [pmem.LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Run(func(tx *Tx) { tx.StoreLine(4096, &line) })
	}
}

func BenchmarkTxCopy(b *testing.B) {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 20}), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Run(func(tx *Tx) {
			var line [pmem.LineSize]byte
			tx.LoadLine(4096, &line)
			tx.StoreLine(4096+pmem.LineSize, &line)
		})
	}
}

// The line ops are the Tx benchmarks' transactions without Run's Tx,
// closure and recover.

func BenchmarkLineLoad(b *testing.B) {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 20}), Config{})
	var line [pmem.LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LoadLine(4096, &line)
	}
}

func BenchmarkLineStore(b *testing.B) {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 20}), Config{})
	var line [pmem.LineSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StoreLine(4096, &line)
	}
}

func BenchmarkLineCopy(b *testing.B) {
	r := NewRegion(pmem.New(pmem.Config{Size: 1 << 20}), Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CopyLine(4096, 4096+pmem.LineSize)
	}
}
