package main

import (
	"math"
	"testing"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		got, n := percentile(xs, c.p)
		if got != c.want || n != 1000 {
			t.Errorf("percentile(p%v) = %v over %d samples, want %v over 1000", c.p, got, n, c.want)
		}
	}
	if v, n := percentile(nil, 99); v != 0 || n != 0 {
		t.Errorf("empty sample: %v over %d, want 0 over 0", v, n)
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedianEvenAndOdd(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
}

func TestWindowedPercentileKeepsTenBeyond(t *testing.T) {
	// 3000 samples: p99 needs 1000 per window, so three windows. One
	// window holds a burst of slow samples; the median ignores it.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i%1000 + 1)
	}
	for i := 0; i < 100; i++ {
		xs[1000+i*10] = 1e6
	}
	got, n := windowedPct(xs, 99)
	if n != 3000 || got != 990 {
		t.Errorf("windowed p99 = %v over %d, want 990 over 3000", got, n)
	}
	// Too few samples for even one full window still reads the pooled p99.
	if got, n := windowedPct(xs[:500], 99); n != 500 || got != 495 {
		t.Errorf("short sample p99 = %v over %d, want 495 over 500", got, n)
	}
	// p50 needs 20 per window, so it splits into maxWindows.
	if need := math.Ceil(10 / (1 - 0.5)); need != 20 {
		t.Fatalf("p50 window size %v", need)
	}
}

func TestUnstolenShare(t *testing.T) {
	a := parseCPUStat("cpu  1000 0 200 5000 10 0 30 60 0 0")
	b := parseCPUStat("cpu  1150 0 230 5160 10 0 40 70 5 0")
	if a.total != 6300 || a.steal != 60 {
		t.Fatalf("parsed %+v, want total 6300, steal 60", a)
	}
	// 360 ticks passed, 10 of them stolen; guest time is inside user.
	if got, want := unstolen(a, b), 1-10.0/360; math.Abs(got-want) > 1e-12 {
		t.Errorf("unstolen = %v, want %v", got, want)
	}
	if got := unstolen(a, a); got != 1 {
		t.Errorf("no time passed: unstolen = %v, want 1", got)
	}
	if got := parseCPUStat("cpu0 1 2 3 4 5 6 7 8"); got != (cpuStat{}) {
		t.Errorf("per-CPU line parsed as the aggregate: %+v", got)
	}
}
