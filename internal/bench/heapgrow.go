package bench

import (
	"fmt"
	"time"

	"rntree/kv"
)

// heapGrow* size the growth workload. The initial arena and each appended
// segment are deliberately small so a short single-threaded Put stream
// crosses many segment-append cutovers; the window is in operations (not
// wall time) so every run slices the stream at the same points and the
// growth windows land deterministically.
const (
	heapGrowSeg0     = 2 << 20 // initial partition arena
	heapGrowSegSize  = 1 << 20 // appended segment size
	heapGrowMaxSegs  = 64
	heapGrowChunk    = 1 << 16 // value-log chunk (one heap alloc each)
	heapGrowValSize  = 256
	heapGrowWindowOp = 1500
	heapGrowWindows  = 24
)

// HeapGrow measures what a segment append costs the writers that trigger
// it: a single-threaded Put stream on a heap-formatted store whose arena
// starts small, sliced into fixed-size windows. Windows during which the
// heap appended at least one segment are compared against the steady
// windows; the acceptance bar is the growth windows holding at least 80%
// of steady-state throughput (growth is a bounded metadata operation —
// undo-logged header writes plus a table flip — not a stop-the-world
// copy).
func HeapGrow(c Config) []Result {
	c = c.normalized()
	res := Result{
		ID: "heapgrow",
		Title: fmt.Sprintf("kv Put throughput across heap segment appends (%d-op windows, %dB values)",
			heapGrowWindowOp, heapGrowValSize),
		Header: []string{"window", "kops", "segments", "grew"},
	}
	s, err := kv.New(kv.Options{
		ArenaSize:    heapGrowSeg0,
		GrowSize:     heapGrowSegSize,
		MaxSegments:  heapGrowMaxSegs,
		ChunkSize:    heapGrowChunk,
		FlushLatency: c.Latency,
	})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	arena := s.Arenas()[0]
	val := make([]byte, heapGrowValSize)
	key := make([]byte, 0, 32)
	var steady, growth []float64
	seq := uint64(0)
	for w := 0; w < heapGrowWindows; w++ {
		segsBefore := arena.Segments()
		t0 := time.Now()
		for i := 0; i < heapGrowWindowOp; i++ {
			key = append(key[:0], "hg-"...)
			for sh := 56; sh >= 0; sh -= 8 {
				key = append(key, byte(seq>>uint(sh)))
			}
			seq++
			for j := range val {
				val[j] = byte(seq + uint64(j))
			}
			if err := s.Put(key, val); err != nil {
				panic(fmt.Sprintf("heapgrow: put %d: %v", seq, err))
			}
		}
		kops := float64(heapGrowWindowOp) / time.Since(t0).Seconds() / 1e3
		grew := arena.Segments() - segsBefore
		if grew > 0 {
			growth = append(growth, kops)
		} else {
			steady = append(steady, kops)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", w), f1(kops),
			fmt.Sprintf("%d", arena.Segments()),
			fmt.Sprintf("%d", grew),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("heap geometry: %d MiB initial arena, %d MiB per appended segment, %d B value-log chunks",
			heapGrowSeg0>>20, heapGrowSegSize>>20, heapGrowChunk),
		fmt.Sprintf("%d steady windows, %d windows containing >=1 segment append (final heap: %d segments)",
			len(steady), len(growth), arena.Segments()))
	if len(steady) > 0 && len(growth) > 0 {
		sm, gm := medianF(steady), medianF(growth)
		ratio := gm / sm
		note := fmt.Sprintf("growth-window throughput is %sx steady-state (median %s vs %s kops)",
			f2(ratio), f1(gm), f1(sm))
		if ratio < 0.8 {
			note += " — BELOW the 80% acceptance bar"
		}
		res.Notes = append(res.Notes, note)
	} else {
		res.Notes = append(res.Notes,
			"workload never grew the heap (or never ran steady) — ratio not computable; enlarge the window count")
	}
	return []Result{res}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// medianF returns the median of a non-empty sample without mutating it.
func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
