package inner

import (
	"fmt"
	"math/rand"
	"testing"
)

func buildIndex(n int) *Index {
	ix := New(1)
	for i := 1; i < n; i++ {
		ix.Insert(uint64(i)*16, uint64(i+1))
	}
	return ix
}

func BenchmarkSeek(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(benchName(n), func(b *testing.B) {
			ix := buildIndex(n)
			rng := rand.New(rand.NewSource(1))
			keys := make([]uint64, 4096)
			for i := range keys {
				keys[i] = rng.Uint64() % (uint64(n) * 16)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ix.Seek(keys[i&4095])
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	ix := New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Insert(uint64(i)*2+1, uint64(i+2))
	}
}

func BenchmarkSeekDuringInserts(b *testing.B) {
	// Reader throughput while a writer splits continuously — the COW
	// index's reason to exist.
	ix := buildIndex(10_000)
	stop := make(chan struct{})
	go func() {
		sep := uint64(10_000) * 16
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ix.Insert(sep+i, i)
		}
	}()
	defer close(stop)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Seek(rng.Uint64() % (10_000 * 16))
	}
}

func benchName(n int) string {
	return fmt.Sprintf("%dk", n/1000)
}
