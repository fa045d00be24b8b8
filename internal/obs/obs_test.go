package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coregap/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyEvents runs a miniature deterministic scenario — two timer
// events emitting a world switch, an IPI and a proxy post — and
// returns the recorded ring.
func tinyEvents() []sim.TraceEvent {
	e := sim.NewEngine(42)
	tr := e.EnableTracing(64)
	e.At(100, "timer.tick", func() {
		tr.Span(sim.TCWorld, "hw.world_switch", 0, 30*sim.Nanosecond, 1)
		tr.Emit(sim.TCIRQ, "hw.ipi", 0, 1)
	})
	e.At(250, "wake", func() {
		tr.Emit(sim.TCProxy, "rpc.post", 1, 7)
	})
	e.Run()
	return tr.Events(nil)
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTraceWithCounters(&buf, "tiny", tinyEvents(), nil); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "tiny_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Chrome trace differs from golden %s;\ngot:\n%s", golden, buf.String())
	}
}

func TestChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := ChromeTraceWithCounters(&buf, "tiny", tinyEvents(), nil); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	// 2 sched + 2 fire from the engine, plus the 3 subsystem events.
	if n != 7 {
		t.Errorf("validated %d events, want 7", n)
	}
	for _, want := range []string{"hw.world_switch", "hw.ipi", "rpc.post", `"ph": "X"`, `"ph": "i"`, "process_name", "thread_name"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("trace JSON missing %q", want)
		}
	}
}

func TestValidateChromeRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":         "{",
		"no traceEvents":   `{"foo": 1}`,
		"missing name":     `{"traceEvents":[{"ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"unknown phase":    `{"traceEvents":[{"name":"a","ph":"Q","ts":1,"pid":1,"tid":0}]}`,
		"backwards time":   `{"traceEvents":[{"name":"a","ph":"i","ts":2,"pid":1,"tid":0},{"name":"b","ph":"i","ts":1,"pid":1,"tid":0}]}`,
		"span without dur": `{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1,"tid":0}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: ValidateChrome accepted %s", name, data)
		}
	}
}
