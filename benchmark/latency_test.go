package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]int32, 1000) // 1..1000
	for i := range v {
		v[i] = int32(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", 100*c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]int32{7}, 0.99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
}

// A percentile is only quoted when at least ten samples lie beyond it.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}, {100000, 0.9999, true}, {99999, 0.9999, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// synth builds one recorder with n samples per segment; segment i's
// operations take lat[i] and complete gap[i] apart.
func synth(n int, lat, gap []time.Duration) (*recorder, int64) {
	r := newRecorder(n * len(lat))
	var now int64
	for i := range lat {
		for j := 0; j < n; j++ {
			now += int64(gap[i])
			r.add(now, lat[i], opRead)
		}
	}
	return r, now + 1
}

func TestMedianOfSegmentsIgnoresOneDisturbedSegment(t *testing.T) {
	us := time.Microsecond
	// Five segments of 2000 operations; the fourth ran at a third of the
	// speed with five times the latency (a collection, a noisy neighbour).
	r, end := synth(2000,
		[]time.Duration{100 * us, 100 * us, 100 * us, 500 * us, 100 * us},
		[]time.Duration{10 * us, 10 * us, 10 * us, 30 * us, 10 * us})
	w := cutWindow([]*recorder{r}, 0, end, 0, 5, 1)
	if got := w.ops(); got != 10000 {
		t.Fatalf("window holds %d ops, want 10000", got)
	}
	tp := w.throughput()
	if math.Abs(tp.median-100000) > 100 {
		t.Errorf("throughput median %g ops/s, want 100000 (the undisturbed rate)", tp.median)
	}
	if math.Abs(tp.min-100000.0/3) > 100 {
		t.Errorf("throughput min %g, want the disturbed segment's 33333", tp.min)
	}
	if !tp.unsteady() {
		t.Error("a segment at a third of the speed did not flag the window unsteady")
	}
	p50 := quantileUs(w.latencies(isRead), 0.5)
	if p50.median != 100 || p50.max != 500 {
		t.Errorf("p50 median %g max %g us, want 100 and 500", p50.median, p50.max)
	}
	// Pooled over the window the same p99 is the disturbed segment's value:
	// the median of segments is what keeps it out.
	if q, _, _ := pooledUs(w.latencies(isRead), 0.99); q != 500 {
		t.Errorf("pooled p99 %g us, want 500", q)
	}
	if p99 := quantileUs(w.latencies(isRead), 0.99); p99.median != 100 {
		t.Errorf("p99 as median of segments %g us, want 100", p99.median)
	}
}

func TestSteadyWindowIsNotFlagged(t *testing.T) {
	us := time.Microsecond
	r, end := synth(1000,
		[]time.Duration{100 * us, 104 * us, 98 * us, 101 * us, 99 * us},
		[]time.Duration{10 * us, 11 * us, 10 * us, 10 * us, 9 * us})
	if tp := cutWindow([]*recorder{r}, 0, end, 0, 5, 1).throughput(); tp.unsteady() {
		t.Errorf("segments within 25%% of each other flagged unsteady: %v", tp.vals)
	}
}

// Segments hold equal operation counts, the window keeps only its planned
// operations, and samples outside [from, to) are left out.
func TestWindowCutsByOperationCount(t *testing.T) {
	us := time.Microsecond
	a, _ := synth(500, []time.Duration{us}, []time.Duration{2 * us}) // ends 2,4,..1000 us
	b, _ := synth(500, []time.Duration{us}, []time.Duration{2 * us}) // the same instants
	w := cutWindow([]*recorder{a, b}, int64(101*us), int64(2000*us), 600, 5, 16)
	if got := w.ops(); got != 600*16 {
		t.Fatalf("window holds %d ops, want %d", got, 600*16)
	}
	for i, s := range w.segs {
		if len(s) != 120 {
			t.Errorf("segment %d holds %d samples, want 120", i, len(s))
		}
	}
	if first := w.segs[0][0].end; first != int64(102*us) {
		t.Errorf("first sample ends at %d ns, want %d", first, 102*us)
	}
	if want := int64(700 * us); w.to != want {
		t.Errorf("window ends at %d ns, want %d (its 600th sample)", w.to, want)
	}
}

// Too few samples per segment for p99: the quantile is taken once over the
// pooled window and marked as such, not quoted from noise.
func TestThinSegmentsArePooled(t *testing.T) {
	us := time.Microsecond
	r, end := synth(300, []time.Duration{us, us, us, us, 9 * us}, []time.Duration{us, us, us, us, us})
	w := cutWindow([]*recorder{r}, 0, end, 0, 5, 1)
	p99 := quantileUs(w.latencies(isRead), 0.99)
	if p99.n != 1 {
		t.Fatalf("300 samples a segment cannot support p99, yet %d segment values were used", p99.n)
	}
	if p99.median != 9 {
		t.Errorf("pooled p99 %g us, want 9", p99.median)
	}
	if p50 := quantileUs(w.latencies(isRead), 0.5); p50.n != 5 || p50.median != 1 {
		t.Errorf("p50 used %d segments and gave %g us, want 5 and 1", p50.n, p50.median)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 5,1,3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g", got)
	}
}
