package main

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"coregap/internal/exp"
)

// TestPrintTrialLabelsSorted: a trial's labels print in key order, like
// its values, so the same trial always prints the same text.
func TestPrintTrialLabelsSorted(t *testing.T) {
	sorted := []string{"attest.pcrs", "attest.rim", "boot", "leaks", "mode", "verdict"}
	trial := exp.Trial{Labels: map[string][]string{}}
	for _, k := range sorted {
		trial.Labels[k] = []string{k + "-value"}
	}
	// Map iteration order varies from run to run; print several times.
	for run := 0; run < 20; run++ {
		out := capture(t, func() { printTrial(exp.ScenarioSpec{}, trial) })
		last := -1
		for _, want := range sorted {
			i := strings.Index(out, want+"-value")
			if i < 0 || i < last {
				t.Fatalf("run %d: label %q missing or printed out of order:\n%s", run, want, out)
			}
			last = i
		}
	}
}

// TestParseRates: -rate accepts positive, finite req/s values and
// rejects the rest. NaN and +Inf parse as floats, so they need their own
// check; a run at either rate would never finish.
func TestParseRates(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []float64 // nil: an error
	}{
		{"NaN", nil},
		{"+Inf", nil},
		{"0", nil},
		{"-5", nil},
		{"abc", nil},
		{"1e5,2e5", []float64{1e5, 2e5}},
	} {
		got, err := parseRates(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseRates(%q) = %v, want an error", c.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseRates(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// capture returns what f writes to standard output.
func capture(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
