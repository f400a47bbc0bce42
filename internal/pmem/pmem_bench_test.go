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

// BenchmarkCrashImage snapshots an 8 MiB arena with 1 line in 64 left dirty
// and with 63 in 64 dirty: a clean line costs its share of one bulk copy, a
// dirty line a visit to its durable content.
func BenchmarkCrashImage(b *testing.B) {
	for _, c := range []struct {
		name  string
		dirty func(line uint64) bool
	}{
		{"mostly-clean", func(l uint64) bool { return l%64 == 0 }},
		{"mostly-dirty", func(l uint64) bool { return l%64 != 0 }},
	} {
		b.Run(c.name, func(b *testing.B) {
			a := New(Config{Size: 8 << 20})
			for l := uint64(DataStart / LineSize); l < a.Size()/LineSize; l++ {
				a.Write8(l*LineSize, l)
				if !c.dirty(l) {
					a.Persist(l*LineSize, 8)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = a.CrashImage(nil, 0)
			}
		})
	}
}

// BenchmarkWriteStream1KiB is the value log's append: a 1 KiB record streamed
// into fresh lines, then fenced.
func BenchmarkWriteStream1KiB(b *testing.B) {
	a := New(Config{Size: 1 << 20})
	src := make([]byte, 1<<10)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := DataStart + uint64(i%512)*uint64(len(src))
		a.WriteStream(off, src)
		a.PersistStream(off, uint64(len(src)))
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
