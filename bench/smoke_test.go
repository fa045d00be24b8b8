package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
)

func TestMain(m *testing.M) {
	// The benchmark starts its measuring processes from os.Executable(),
	// which under go test is this test binary.
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	// The benchmark's paths are relative to the repository root.
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %+v, defined %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better || e.Bound != m.bound {
			t.Errorf("end_to_end %d: listed %+v, defined %+v", i, e, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if e := b.PerLayer[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("per_layer %d: listed %+v, defined %+v", i, e, m)
		}
	}
}

// TestSmoke runs every workload untraced and traced with one process and
// one warm pass, and checks that every listed metric comes back with its
// unit and that nothing failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	b := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	layerUnits := map[string]string{}
	for _, m := range b.PerLayer {
		layerUnits[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := units
			if traced {
				want = layerUnits
			}
			var out bytes.Buffer
			res, err := benchmark(context.Background(), config{w: w, seed: digestSeed, seconds: defaultSeconds, trace: traced, smoke: true}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, got, unit)
				}
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last result
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: last line is not the result: %v", w.name, traced, err)
			}
			if traced {
				if sum := cpuShareSum(res); sum < 99 || sum > 101 {
					t.Errorf("%s: layer CPU shares sum to %g", w.name, sum)
				}
			}
		}
	}
}

func cpuShareSum(res result) float64 {
	sum := res.Metrics[noFrameMetric].Value
	for _, l := range cpuLayers {
		sum += res.Metrics[l+".cpu_pct"].Value
	}
	return sum
}
