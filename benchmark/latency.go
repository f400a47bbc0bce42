package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// Exact latency recording. internal/hist buckets carry ~6 % error, which is
// the size of the bounds this benchmark gates on, so every sample is kept:
// one slice per goroutine, preallocated, appended to without a lock.

// sample is one completed (timed) operation.
type sample struct {
	end  int64 // ns since the run's base time, taken when the call returned
	lat  int32 // ns, from just before the call to its return
	kind opKind
}

type recorder struct{ samples []sample }

func newRecorder(capHint int) *recorder { return &recorder{samples: make([]sample, 0, capHint)} }

func (r *recorder) add(end int64, lat time.Duration, kind opKind) {
	r.samples = append(r.samples, sample{end: end, lat: int32(min(lat, 1<<31-1)), kind: kind})
}

// percentile is the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// supported reports whether n samples leave at least ten beyond the
// q-quantile — the rule for the highest percentile a sample may quote.
func supported(n int, q float64) bool { return float64(n)*(1-q) >= 10-1e-6 } // 1-q is not exact

// highestSupported is the highest of the usual percentiles n samples
// support (0 when even the median has fewer than ten beyond it).
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// segStat summarises one metric over the window's segments: the median is
// the reported value, min and max are printed beside it.
type segStat struct {
	median, min, max float64
	n                int       // segments that had a value
	vals             []float64 // in time order
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func summarize(vals []float64) segStat {
	if len(vals) == 0 {
		return segStat{}
	}
	return segStat{median: median(vals), min: slices.Min(vals), max: slices.Max(vals), n: len(vals), vals: vals}
}

// unsteady flags a window whose segments disagree by more than a quarter:
// something happened inside it (a collection, a neighbour, a step in RSS)
// and its median deserves a second look.
func (s segStat) unsteady() bool { return s.min > 0 && s.max/s.min > 1.25 }

// window is the measured interval cut into segments of equal operation
// count: the first n samples (by completion time) from `from` on, dealt in
// order into nseg groups. A segment's duration is the time between the
// last completion before it and its own last completion.
type window struct {
	from, to int64
	weight   int // operations each sample stands for (treeSampling, or 1)
	segs     [][]sample
	durs     []float64 // seconds, per segment
}

// cutWindow takes the samples completing in [from, to), at most maxSamples
// of them (0 = all), in completion order.
func cutWindow(recs []*recorder, from, to int64, maxSamples, nseg, weight int) *window {
	var all []sample
	for _, r := range recs {
		for _, s := range r.samples {
			if s.end >= from && s.end < to {
				all = append(all, s)
			}
		}
	}
	slices.SortFunc(all, func(a, b sample) int { return cmp.Compare(a.end, b.end) })
	if maxSamples > 0 && len(all) > maxSamples {
		all = all[:maxSamples]
	}
	w := &window{from: from, to: to, weight: weight, segs: make([][]sample, nseg), durs: make([]float64, nseg)}
	if len(all) == 0 {
		return w
	}
	w.to = all[len(all)-1].end
	prev := from
	for i := range w.segs {
		w.segs[i] = all[i*len(all)/nseg : (i+1)*len(all)/nseg]
		if n := len(w.segs[i]); n > 0 {
			w.durs[i] = float64(w.segs[i][n-1].end-prev) / 1e9
			prev = w.segs[i][n-1].end
		}
	}
	return w
}

// ops is the number of operations completed inside the window.
func (w *window) ops() int {
	n := 0
	for _, s := range w.segs {
		n += len(s)
	}
	return n * w.weight
}

// throughput is completed operations per second, per segment.
func (w *window) throughput() segStat {
	var vals []float64
	for i, s := range w.segs {
		if w.durs[i] > 0 {
			vals = append(vals, float64(len(s)*w.weight)/w.durs[i])
		}
	}
	return summarize(vals)
}

// latencies returns the ascending latencies of the samples pick selects,
// per segment.
func (w *window) latencies(pick func(opKind) bool) [][]int32 {
	out := make([][]int32, len(w.segs))
	for i, seg := range w.segs {
		for _, s := range seg {
			if pick(s.kind) {
				out[i] = append(out[i], s.lat)
			}
		}
		slices.Sort(out[i])
	}
	return out
}

// quantileUs is the q-quantile in microseconds as the median over segments.
// When any segment has too few samples to support q, the segments are
// pooled and the quantile taken once over the whole window (n = 1 in the
// result says so): a percentile quoted from fewer than ten samples beyond
// it is noise, and the smoke-scale runs would otherwise report it.
func quantileUs(segs [][]int32, q float64) segStat {
	pooled := false
	for _, s := range segs {
		if !supported(len(s), q) {
			pooled = true
		}
	}
	if pooled {
		var all []int32
		for _, s := range segs {
			all = append(all, s...)
		}
		if len(all) == 0 {
			return segStat{}
		}
		slices.Sort(all)
		v := percentile(all, q) / 1e3
		return segStat{median: v, min: v, max: v, n: 1}
	}
	vals := make([]float64, len(segs))
	for i, s := range segs {
		vals[i] = percentile(s, q) / 1e3
	}
	return summarize(vals)
}

// pooledUs is the q-quantile and the maximum over the whole window, for
// the ungated tail lines (p99.9, max).
func pooledUs(segs [][]int32, q float64) (quantile, maxv float64, n int) {
	var all []int32
	for _, s := range segs {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 0, 0, 0
	}
	slices.Sort(all)
	return percentile(all, q) / 1e3, float64(all[len(all)-1]) / 1e3, len(all)
}
