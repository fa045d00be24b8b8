package trace

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"coregap/internal/sim"
)

func TestHistBasics(t *testing.T) {
	s := NewSet()
	h := s.Hist("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 50 { // (1+..+100)/100 = 50.5, truncates to 50
		t.Fatalf("mean = %v, want 50", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Percentile(95); got != 95 {
		t.Fatalf("p95 = %v, want 95", got)
	}
	if got := h.Percentile(50); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %v, want 5050", h.Sum())
	}
}

// TestHistSumExactPastFloat53 is the precision regression test for the
// running sum: a float64 accumulator silently absorbs small samples
// once the total passes 2^53 ns (2^53 + 1 rounds back to 2^53). The
// int64 accumulator must stay exact.
func TestHistSumExactPastFloat53(t *testing.T) {
	h := &Hist{}
	big := sim.Duration(1) << 53
	h.Observe(big)
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	if want := big + 10; h.Sum() != want {
		t.Fatalf("Sum = %d, want %d (low-order samples lost)", h.Sum(), want)
	}
	// The float64 path demonstrably loses them: 2^53 is the first
	// integer whose successor float64 cannot represent.
	f := float64(big)
	for i := 0; i < 10; i++ {
		f += 1
	}
	if sim.Duration(f) == big+10 {
		t.Fatal("float64 accumulation unexpectedly exact; test premise broken")
	}
}

// TestHistReset: reset keeps the recorder's bucket pages but clears all
// statistics, a reused histogram allocates nothing at steady state, and
// a pooled histogram comes back empty.
func TestHistReset(t *testing.T) {
	h := AcquireHist("x")
	for i := 1; i <= 100; i++ {
		h.Observe(sim.Duration(i))
	}
	if h.Percentile(50) == 0 || h.Sum() == 0 {
		t.Fatal("histogram did not record")
	}
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("reset left state: n=%d sum=%d", h.Count(), h.Sum())
	}
	// Steady state: re-observing the same value range after Reset must
	// reuse the retained pages — zero allocations per cycle.
	if allocs := testing.AllocsPerRun(50, func() {
		for i := 1; i <= 100; i++ {
			h.Observe(sim.Duration(i * 1000))
		}
		h.Reset()
	}); allocs != 0 {
		t.Fatalf("observe+reset cycle allocates %v/run, want 0", allocs)
	}
	h.Observe(7)
	if h.Mean() != 7 || h.Count() != 1 {
		t.Fatal("histogram unusable after reset")
	}
	ReleaseHist(h)
	h2 := AcquireHist("y")
	if h2.Count() != 0 || h2.Sum() != 0 || h2.Name() != "y" {
		t.Fatal("pooled histogram not clean")
	}
	ReleaseHist(h2)
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.Mean() != 0 || h.Percentile(99) != 0 || h.Stddev() != 0 {
		t.Fatal("empty hist should report zeros")
	}
}

// TestHistPercentileProperty is the recorder-versus-exact equivalence
// property: for any sample set, a percentile answered from the streaming
// recorder must sit in [exact, exact + one bucket width] and never leave
// [Min, Max] — the bucketized nearest-rank can round a value up to the
// top of its bucket, but by no more than one part in 2^14, and the
// extremes are exact. int64 inputs exercise the exact linear segment,
// several log segments, and the clamping at both ends.
func TestHistPercentileProperty(t *testing.T) {
	f := func(raw []int64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := &Hist{}
		vals := make([]sim.Duration, len(raw))
		for i, r := range raw {
			if r < 0 {
				r = -r
			}
			vals[i] = sim.Duration(r)
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		p := float64(pRaw) / 255 * 100
		got := h.Percentile(p)
		if got < vals[0] || got > vals[len(vals)-1] {
			return false
		}
		// Exact nearest-rank reference.
		rank := int(math.Ceil(p / 100 * float64(len(vals))))
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		if p <= 0 {
			exact = vals[0]
		}
		if p >= 100 {
			exact = vals[len(vals)-1]
		}
		// One bucket width at the exact value's magnitude, at least 1.
		width := exact >> recSubBits
		if width < 1 {
			width = 1
		}
		return got >= exact && got <= exact+width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistPercentileMonotone(t *testing.T) {
	h := &Hist{}
	src := sim.NewSource(3)
	for i := 0; i < 5000; i++ {
		h.Observe(src.Duration(0, 1_000_000))
	}
	prev := sim.Duration(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestHistStddev(t *testing.T) {
	h := &Hist{}
	for _, v := range []sim.Duration{2000, 4000, 4000, 4000, 5000, 5000, 7000, 9000} {
		h.Observe(v)
	}
	// Known dataset (×1000): sample stddev ~2138.
	got := float64(h.Stddev())
	if math.Abs(got-2138) > 1 {
		t.Fatalf("stddev = %v, want ~2138", got)
	}
}

func TestSetNamesSorted(t *testing.T) {
	s := NewSet()
	s.SetWindow(sim.Millisecond)
	s.Lat("z", 0, 1)
	s.Lat("y", 0, 1)
	if names := s.HistNames(); len(names) != 2 || names[0] != "y" || names[1] != "z" {
		t.Fatalf("hist names = %v", names)
	}
	if names := s.WindowedNames(); len(names) != 2 || names[0] != "y" || names[1] != "z" {
		t.Fatalf("windowed names = %v", names)
	}
	if out := s.String(); !strings.Contains(out, "hist") || !strings.Contains(out, "windowed") {
		t.Fatalf("String missing sections: %q", out)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 30)
	if y, ok := s.YAt(2); !ok || y != 30 {
		t.Fatalf("YAt(2) = %v,%v", y, ok)
	}
	if _, ok := s.YAt(99); ok {
		t.Fatal("YAt(99) should miss")
	}
	if s.MaxY() != 30 {
		t.Fatalf("MaxY = %v", s.MaxY())
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Figure 6", "scaling", "cores", "score")
	f.Series("shared").Add(4, 100)
	f.Series("gapped").Add(4, 110)
	f.Series("gapped").Add(8, 220)
	out := f.String()
	for _, want := range []string{"Figure 6", "shared", "gapped", "cores", "score"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
	if labels := f.Labels(); len(labels) != 2 || labels[0] != "shared" {
		t.Fatalf("labels = %v", labels)
	}
	// Missing cell renders as "-".
	if !strings.Contains(out, "-") {
		t.Fatal("missing cell not rendered as -")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Table 2", "null call latency", "Latency")
	tb.AddRow("async", "2757.6 ns")
	tb.AddRow("sync", "257.7 ns")
	if tb.Rows() != 2 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	if got := tb.Cell("sync", "Latency"); got != "257.7 ns" {
		t.Fatalf("cell = %q", got)
	}
	if got := tb.Cell("nope", "Latency"); got != "" {
		t.Fatalf("missing row cell = %q", got)
	}
	out := tb.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "async") {
		t.Fatalf("table output wrong:\n%s", out)
	}
}
