package main

import "testing"

func TestVerdict(t *testing.T) {
	m := metric{name: "pass_s", better: "lower", bound: 0.05}
	series := func(vs ...float64) []measured {
		rs := make([]measured, len(vs))
		for i, v := range vs {
			rs[i] = measured{uint64(i), v}
		}
		return rs
	}
	base := series(1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00)
	for _, c := range []struct {
		name string
		b    []measured
		want string
	}{
		{"same", series(1.00, 1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99), "unchanged"},
		{"within bound", series(1.03, 1.04, 1.02, 1.03, 1.05, 1.01, 1.03, 1.04, 1.02, 1.03), "unchanged"},
		{"faster in every pair", series(0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90), "better"},
		{"slower past bound", series(1.10, 1.11, 1.09, 1.10, 1.12, 1.08, 1.10, 1.11, 1.09, 1.10), "worse"},
		{"noisy", series(0.80, 1.20, 0.90, 1.10, 1.00, 0.85, 1.15, 0.95, 1.05, 1.00), "unresolved"},
		{"noisy but all faster", series(0.50, 0.70, 0.55, 0.65, 0.60, 0.52, 0.68, 0.58, 0.62, 0.60), "better"},
	} {
		if got := verdict(m, base, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	higher := metric{name: "x", better: "higher", bound: 0.05}
	if got := verdict(higher, base, series(0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90)); got != "worse" {
		t.Errorf("lower values of a higher-is-better metric: verdict %s, want worse", got)
	}
}
