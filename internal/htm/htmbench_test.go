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
