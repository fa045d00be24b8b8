package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {39, 100}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestQuartiles checks against Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.5, 1.5}, 1.25, 2.75},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4}); got != 1 {
		t.Errorf("spread = %g, want (3.75-1.25)/2.5 = 1", got)
	}
}
