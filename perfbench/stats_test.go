package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the helper must sort
	}
	return xs
}

func TestPercentileMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		got, err := percentile(tc.xs, 0.5)
		if err != nil || got != tc.want {
			t.Errorf("percentile(%v, 0.5) = %v, %v; want %v", tc.xs, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("median of no samples was not refused")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990}, // 10 samples above rank 990
		{999, 0.99, false, 0},   // rank 990, only 9 above
		{10000, 0.999, true, 9990},
		{9999, 0.999, false, 0},
		{200, 0.95, true, 190},
		{199, 0.95, false, 0},
		{3, 0.9, false, 0},
		{100, 0.1, false, 0}, // lower tail: 9 samples below rank 10
		{110, 0.1, true, 11},
	} {
		got, err := percentile(seq(tc.n), tc.q)
		if tc.ok != (err == nil) {
			t.Errorf("n=%d q=%g: err=%v, want ok=%v", tc.n, tc.q, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("n=%d q=%g: got %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1)
	}
	got, err := percentile(xs, 0.99)
	if err != nil || !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failures = %v, %v; want +Inf", got, err)
	}
}

func TestPercentileRejectsBadQ(t *testing.T) {
	for _, q := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := percentile(seq(100), q); err == nil {
			t.Errorf("q=%v was not refused", q)
		}
	}
}
