package main

import (
	"math"
	"slices"
)

// tailCandidates are the tail percentiles a timing may report, highest
// last.
var tailCandidates = []float64{75, 90, 95, 99, 99.9}

// tailPercentile is the highest candidate percentile that leaves at least
// ten of n samples beyond it, or 100 (the largest sample) when even the
// 75th leaves fewer.
func tailPercentile(n int) float64 {
	for i := len(tailCandidates) - 1; i >= 0; i-- {
		if p := tailCandidates[i]; float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 100
}

// percentile interpolates linearly between the closest ranks of the
// sorted copy of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default, "exclusive"), so
// spreads printed here agree with that common tool.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld, m := len(s), len(s)+1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
