package kv

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rntree/internal/pmem"
)

func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := New(Options{ArenaSize: 512 << 20, FlushLatency: pmem.DefaultLatency})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkPut(b *testing.B) {
	s := benchStore(b)
	val := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	s := benchStore(b)
	const n = 100_000
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("key-%09d", i))
		if err := s.Put(keys[i], []byte("value")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(keys[i%n]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutParallel exercises the partitioned write path: concurrent Puts
// on different partitions overlap their record persists. The one-partition
// case is the comparison: every writer behind one log lock, held across the
// record persist.
func BenchmarkPutParallel(b *testing.B) {
	for _, parts := range []int{8, 1} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			s, err := New(Options{ArenaSize: 512 << 20, Partitions: parts, FlushLatency: pmem.DefaultLatency})
			if err != nil {
				b.Fatal(err)
			}
			val := make([]byte, 100)
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					if err := s.Put([]byte(fmt.Sprintf("key-%09d", i)), val); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkOverwrite(b *testing.B) {
	s := benchStore(b)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i%n)), []byte("vv")); err != nil {
			b.Fatal(err)
		}
	}
}
