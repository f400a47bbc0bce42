package pmem

import (
	"testing"
	"time"
)

func BenchmarkWrite8(b *testing.B) {
	a := New(Config{Size: 1 << 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Write8(RootSize+uint64(i%1024)*8, uint64(i))
	}
}

func BenchmarkRead8(b *testing.B) {
	a := New(Config{Size: 1 << 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Read8(RootSize + uint64(i%1024)*8)
	}
}

func BenchmarkPersistOneLineNoLatency(b *testing.B) {
	a := New(Config{Size: 1 << 20})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Write8(RootSize, uint64(i))
		a.Persist(RootSize, 8)
	}
}

func BenchmarkPersistOneLineDefaultLatency(b *testing.B) {
	a := New(Config{Size: 1 << 20, Latency: DefaultLatency})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Write8(RootSize, uint64(i))
		a.Persist(RootSize, 8)
	}
}

func BenchmarkPersistLeafSized(b *testing.B) {
	// 19-line persist: the cost of a split/compaction flush.
	a := New(Config{Size: 1 << 20, Latency: DefaultLatency})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Persist(RootSize, 19*LineSize)
	}
}

func BenchmarkWriteLineWords(b *testing.B) {
	a := New(Config{Size: 1 << 20})
	var w [WordsPerLine]uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w[0] = uint64(i)
		a.WriteLineWords(RootSize, &w)
	}
}

func BenchmarkCrashImage(b *testing.B) {
	a := New(Config{Size: 8 << 20})
	for i := uint64(0); i < 1024; i++ {
		a.Write8(RootSize+i*8, i)
	}
	a.Persist(RootSize, 1024*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.CrashImage(nil, 0)
	}
}

func BenchmarkSpinAccuracy(b *testing.B) {
	b.ReportAllocs()
	// Sanity: the latency busy-wait is in the right ballpark.
	a := New(Config{Size: 1 << 16, Latency: LatencyModel{Fence: 500 * time.Nanosecond}})
	t0 := time.Now()
	const n = 1000
	for i := 0; i < n; i++ {
		a.Fence()
	}
	el := time.Since(t0)
	if el < n*400*time.Nanosecond {
		b.Fatalf("fences too fast: %v for %d", el, n)
	}
	b.ReportMetric(float64(el.Nanoseconds())/n, "ns/fence")
}
