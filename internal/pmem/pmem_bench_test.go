package pmem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// BenchmarkPersistStall prices the stall engine itself: overshoot-ns/op is a
// persist's measured time minus its modeled time, on goroutines that each
// own an arena (so no drain lane is shared and the model is exact).
func BenchmarkPersistStall(b *testing.B) {
	for _, p := range []struct {
		name string
		m    LatencyModel
	}{{"nvdimm", ProfileNVDIMM}, {"optanedimm", ProfileOptaneDIMM}} {
		for _, lines := range []uint64{1, 17} {
			for _, g := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/lines=%d/g=%d", p.name, lines, g), func(b *testing.B) {
					modeled := time.Duration(lines)*(p.m.DrainPerLine+p.m.FlushPerLine) + p.m.Fence
					var wg sync.WaitGroup
					b.ResetTimer()
					for w := 0; w < g; w++ {
						a := New(Config{Size: 1 << 16, Latency: p.m})
						wg.Add(1)
						go func() {
							defer wg.Done()
							for i := 0; i < b.N; i++ {
								a.Write8(DataStart, uint64(i))
								a.Persist(DataStart, lines*LineSize)
							}
						}()
					}
					wg.Wait()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)-float64(modeled), "overshoot-ns/op")
				})
			}
		}
	}
}

// BenchmarkGoschedRoundTrip measures what pollTail is set from: what one
// runtime.Gosched costs its caller — a pass through the global run queue and
// back — alone and with other goroutines yielding beside it.
func BenchmarkGoschedRoundTrip(b *testing.B) {
	for _, others := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("others=%d", others), func(b *testing.B) {
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < others; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						runtime.Gosched()
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.Gosched()
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
		})
	}
}
