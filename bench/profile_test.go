package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestAttributeTracesFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("bench", "testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("parsed %d samples, want 7", len(samples))
	}
	if s := samples[0]; s.value.Milliseconds() != 400 || s.frames[0] != "coregap/internal/sim.matVec" || len(s.frames) != 13 {
		t.Errorf("first sample = %v, %d frames from %s", s.value, len(s.frames), s.frames[0])
	}
	got := attribute(samples)
	want := map[string]float64{
		"sim.rng.cpu_pct": 40, // matVec under Source.Skip, called from uarch
		"uarch.cpu_pct":   20, // runtime allocation charged to its caller
		"sim.cpu_pct":     10,
		noFrameMetric:     10, // GC worker: no simulator or benchmark frame
		"bench.cpu_pct":   10, // hashing called from the benchmark
		"other.cpu_pct":   5,  // a module without a layer of its own
		"trace.cpu_pct":   5,
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += got[l+".cpu_pct"]
	}
	sum += got[noFrameMetric]
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer shares sum to %g, want 100", sum)
	}
	for name, v := range got {
		if name == "runtime.malloc_cpu_pct" {
			continue
		}
		if math.Abs(v-want[name]) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, v, want[name])
		}
	}
	if m := got["runtime.malloc_cpu_pct"]; math.Abs(m-20) > 1e-9 {
		t.Errorf("runtime.malloc_cpu_pct = %g, want 20", m)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"coregap/internal/sim.(*Source).Uint64":           "sim.rng",
		"coregap/internal/sim.(*Engine).After":            "sim",
		"coregap/internal/exp.(*Runner).RunSpecs.func1":   "exp",
		"coregap/internal/planner.Plan":                   "other",
		"main.(*spanLog).add":                             "bench",
		"coregap/internal/granule.(*Table).Delegate":      "granule",
		"coregap/internal/vmm.(*OpenLoadGen).deliverNext": "vmm",
	} {
		if got, ok := frameLayer(fn); !ok || got != want {
			t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "crypto/sha256.block", "coregap.New"} {
		if got, ok := frameLayer(fn); ok {
			t.Errorf("frameLayer(%q) = %q, want no layer", fn, got)
		}
	}
}
