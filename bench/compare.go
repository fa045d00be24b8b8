package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func compareFiles(a, b string, out io.Writer) (bool, error) {
	ra, err := readRecords(a)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(b)
	if err != nil {
		return false, err
	}
	return compare(ra, rb, out), nil
}

// measured is one measurement of one metric.
type measured struct {
	seed uint64
	v    float64
}

func runsOf(recs []record, workload, name string, trace int) []measured {
	var rs []measured
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			rs = append(rs, measured{r.Seed, m.Value})
		}
	}
	return rs
}

func values(rs []measured) []float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = r.v
	}
	return vs
}

// pairs matches the runs of the two sides by seed where both have it and
// by position otherwise.
func pairs(a, b []measured) [][2]float64 {
	bySeed := map[uint64]float64{}
	for _, r := range a {
		bySeed[r.seed] = r.v
	}
	var ps [][2]float64
	for i, r := range b {
		if v, ok := bySeed[r.seed]; ok {
			ps = append(ps, [2]float64{v, r.v})
		} else if i < len(a) {
			ps = append(ps, [2]float64{a[i].v, r.v})
		}
	}
	return ps
}

// verdict applies the choosing-metrics rules to a baseline a and a change
// b of one metric. A gain needs b to win at least nine tenths of the
// pairs and the medians to differ by more than a's interquartile
// distance. A loss is a median worse by more than the metric's bound.
// When either side's spread exceeds the bound the metric is unresolved,
// unless every run of b is better (or worse) than every run of a.
func verdict(m metric, a, b []measured) string {
	va, vb := values(a), values(b)
	better := func(x, y float64) bool { // x better than y
		if m.better == "higher" {
			return x > y
		}
		return x < y
	}
	if spread(va) > m.bound || spread(vb) > m.bound {
		allBetter, allWorse := true, true
		for _, x := range vb {
			for _, y := range va {
				allBetter = allBetter && better(x, y)
				allWorse = allWorse && better(y, x)
			}
		}
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	ma, mb := median(va), median(vb)
	q1, q3 := quartiles(va)
	ps := pairs(a, b)
	wins := 0
	for _, p := range ps {
		if better(p[1], p[0]) {
			wins++
		}
	}
	if better(mb, ma) && 10*wins >= 9*len(ps) && math.Abs(mb-ma) > q3-q1 {
		return "better"
	}
	if better(ma, mb) && math.Abs(mb-ma) > m.bound*math.Abs(ma) {
		return "worse"
	}
	return "unchanged"
}

// compare prints one row per workload and end-to-end metric, then every
// exact per-layer count and digest that differs between runs of equal
// seed. It reports whether nothing got worse, stayed unresolved or
// differs.
func compare(a, b []record, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "%-15s %-18s %-34s %-34s %6s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "bound", "verdict")
	side := func(rs []measured) string {
		vs := values(rs)
		q1, q3 := quartiles(vs)
		return fmt.Sprintf("%.5g [%.5g %.5g] %d", median(vs), q1, q3, len(vs))
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			ra, rb := runsOf(a, w.name, m.name, 0), runsOf(b, w.name, m.name, 0)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			v := verdict(m, ra, rb)
			ok = ok && (v == "better" || v == "unchanged")
			fmt.Fprintf(out, "%-15s %-18s %-34s %-34s %5.0f%%  %s\n", w.name, m.name, side(ra), side(rb), 100*m.bound, v)
		}
	}
	type key struct {
		workload string
		seed     uint64
		trace    int
	}
	first := map[key]record{}
	for _, r := range a {
		if _, seen := first[key{r.Workload, r.Seed, r.Trace}]; !seen {
			first[key{r.Workload, r.Seed, r.Trace}] = r
		}
	}
	compared, differs := 0, 0
	for _, r := range b {
		ra, found := first[key{r.Workload, r.Seed, r.Trace}]
		if !found {
			continue
		}
		compared++
		if ra.Digest != r.Digest {
			differs++
			fmt.Fprintf(out, "%s seed %d: digest differs: %s vs %s\n", r.Workload, r.Seed, ra.Digest, r.Digest)
		}
		for _, m := range perLayer {
			va, inA := ra.Result.Metrics[m.name]
			vb, inB := r.Result.Metrics[m.name]
			if m.exact && inA && inB && va.Value != vb.Value {
				differs++
				fmt.Fprintf(out, "%s seed %d: %s differs: %v vs %v\n", r.Workload, r.Seed, m.name, va.Value, vb.Value)
			}
		}
	}
	fmt.Fprintf(out, "digests and exact per-layer counts: %d runs of equal seed compared, %d differences\n", compared, differs)
	return ok && differs == 0
}
