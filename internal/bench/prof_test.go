package bench

import (
	"testing"
	"time"

	"rntree/internal/pmem"
	"rntree/internal/ycsb"
)

func benchTree(b *testing.B, k TreeKind, mix ycsb.Mix, lat pmem.LatencyModel) {
	c := Config{Scale: 100_000, Duration: time.Second, Latency: lat, Seed: 1, Threads: []int{1}}
	ix, _, err := NewTree(k, c, c.Scale)
	if err != nil {
		b.Fatal(err)
	}
	if err := Warm(ix, k, c.Scale); err != nil {
		b.Fatal(err)
	}
	stream := (ycsb.Workload{Mix: mix, Chooser: ycsb.Uniform{N: c.Scale}}).Stream(1)
	var seq = c.Scale
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := stream()
		switch req.Op {
		case ycsb.OpRead:
			ix.Find(req.Key)
		case ycsb.OpUpdate:
			_ = ix.Update(req.Key, 1)
		default:
			seq++
			_ = ix.Upsert(ycsb.KeyAt(seq), 1)
		}
	}
}

func BenchmarkProfFindRN(b *testing.B) { benchTree(b, KindRNTree, ycsb.C, pmem.LatencyModel{}) }
func BenchmarkProfFindFP(b *testing.B) { benchTree(b, KindFPTree, ycsb.C, pmem.LatencyModel{}) }
func BenchmarkProfUpdRN(b *testing.B) {
	benchTree(b, KindRNTree, ycsb.Mix{Update: 100}, pmem.LatencyModel{})
}
func BenchmarkProfUpdFP(b *testing.B) {
	benchTree(b, KindFPTree, ycsb.Mix{Update: 100}, pmem.LatencyModel{})
}
