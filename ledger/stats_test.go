package main

import (
	"math"
	"testing"
	"time"
)

// The vectors are the output of Python 3's statistics.quantiles(v, n=4),
// the definition the driver computes run-to-run spread with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 0.5, 7.7, 2.2, 9.9, 4.4, 1.0}, 1.0, 3.1, 7.7},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{0.52, 0.55, 0.51, 0.58, 0.5, 0.53, 0.54, 0.61, 0.49, 0.56}, 0.5075, 0.535, 0.565},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, Python gives %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}

// A tail percentile is only reported with ten samples beyond it: p99 needs
// 1000 samples, fewer lower the percentile instead of reporting an outlier.
func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want int
	}{
		{1000, 0.99, 989},
		{2000, 0.99, 1979},
		{999, 0.99, 988},
		{100, 0.99, 89},
		{100, 0.50, 49},
		{11, 0.99, 0},
		{5, 0.99, 0},
		{1000, 0.90, 899},
	}
	for _, c := range cases {
		got := tailIndex(c.n, c.q)
		if got != c.want {
			t.Errorf("tailIndex(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
		if c.n > minTailSamples && c.n-1-got < minTailSamples {
			t.Errorf("tailIndex(%d, %v) = %d leaves %d samples beyond", c.n, c.q, got, c.n-1-got)
		}
	}
}

// Operations are assigned to windows by completion time, windows tile the
// whole phase, and the reported values are medians over windows: one
// disturbed window moves neither.
func TestWindowStats(t *testing.T) {
	l := newOpLog(0)
	// Four 1 s windows. Windows 0, 1 and 3 complete 1000 ops of 1 ms; window
	// 2 is disturbed: only 500 ops, of 2 ms.
	for w := 0; w < 4; w++ {
		n, lat := 1000, time.Millisecond
		if w == 2 {
			n, lat = 500, 2*time.Millisecond
		}
		for i := 0; i < n; i++ {
			done := time.Duration(w)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n) - 1
			l.add(int64(done), int64(lat))
		}
	}
	ws := windowStats(l, 4*time.Second, time.Second, 0.99)
	if ws.windows != 4 || ws.minOps != 500 {
		t.Fatalf("windows = %d, minOps = %d, want 4 and 500", ws.windows, ws.minOps)
	}
	if ws.qps != 1000 {
		t.Errorf("window-median qps = %v, want 1000 (the disturbed window must not count)", ws.qps)
	}
	if ws.tailNs != float64(time.Millisecond) {
		t.Errorf("window-median p99 = %v ns, want 1 ms", ws.tailNs)
	}

	// An operation completing after the deadline belongs to the last window.
	l.add(int64(4*time.Second+time.Millisecond), int64(time.Millisecond))
	if ws := windowStats(l, 4*time.Second, time.Second, 0.99); ws.windows != 4 {
		t.Errorf("late completion opened window %d", ws.windows)
	}

	// A phase that is not a multiple of the window is tiled by equal,
	// slightly longer windows: no operation is dropped or double-weighted.
	l = newOpLog(0)
	for i := 0; i < 3300; i++ {
		l.add(int64(time.Duration(i)*time.Millisecond), int64(time.Millisecond))
	}
	ws = windowStats(l, 3300*time.Millisecond, 2*time.Second, 0.99)
	if ws.windows != 1 || ws.qps != 1000 {
		t.Errorf("3.3 s phase in 2 s windows: %d windows at %v/s, want 1 at 1000", ws.windows, ws.qps)
	}
	ws = windowStats(l, 3300*time.Millisecond, time.Second, 0.99)
	if ws.windows != 3 || ws.minOps != 1100 || math.Abs(ws.qps-1000) > 1e-9 {
		t.Errorf("3.3 s phase in 1 s windows: %d windows, min %d ops, %v/s; want 3, 1100, 1000", ws.windows, ws.minOps, ws.qps)
	}
}
