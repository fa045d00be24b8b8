package exp

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"coregap/internal/obs"
	"coregap/internal/sim"
)

// TestTracedTrialMatchesUntraced is the observer-effect gate: arming the
// flight recorder must not change a single deterministic output of a
// trial — values, labels, windows, simulated time, event count.
func TestTracedTrialMatchesUntraced(t *testing.T) {
	for _, e := range []string{"table2", "table3"} {
		exp, _ := Lookup(e)
		for _, spec := range exp.Specs(Profile{Seed: 42}) {
			plain, err := Execute(spec)
			if err != nil {
				t.Fatalf("%s/%s untraced: %v", e, spec.ID, err)
			}
			spec.Trace = true
			traced, err := Execute(spec)
			if err != nil {
				t.Fatalf("%s/%s traced: %v", e, spec.ID, err)
			}
			if len(traced.TraceEvents) == 0 {
				t.Errorf("%s/%s traced trial captured no events", e, spec.ID)
			}
			if len(plain.TraceEvents) != 0 {
				t.Errorf("%s/%s untraced trial captured %d events", e, spec.ID, len(plain.TraceEvents))
			}
			if got, want := trialValues(traced), trialValues(plain); got != want {
				t.Errorf("%s/%s traced values diverge:\n got %q\nwant %q", e, spec.ID, got, want)
			}
			if traced.Meta.Simulated != plain.Meta.Simulated || traced.Meta.Events != plain.Meta.Events {
				t.Errorf("%s/%s traced meta diverges: %v/%d vs %v/%d", e, spec.ID,
					traced.Meta.Simulated, traced.Meta.Events, plain.Meta.Simulated, plain.Meta.Events)
			}
		}
	}
}

// TestTable2TracedTrials checks the tentpole acceptance shape: a traced
// Table 2 run yields a structurally valid Chrome trace containing
// world-switch, IPI-injection, and proxy-call events with monotone
// sim-time timestamps.
func TestTable2TracedTrials(t *testing.T) {
	e, _ := Lookup("table2")
	var all []sim.TraceEvent
	for _, spec := range e.Specs(Profile{Seed: 42}) {
		spec.Trace = true
		trial, err := Execute(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		var buf bytes.Buffer
		if err := obs.ChromeTraceWithCounters(&buf, "table2 "+spec.ID, trial.TraceEvents, nil); err != nil {
			t.Fatalf("%s: ChromeTraceWithCounters: %v", spec.ID, err)
		}
		n, err := obs.ValidateChrome(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: invalid Chrome trace: %v", spec.ID, err)
		}
		if n != len(trial.TraceEvents) {
			t.Errorf("%s: Chrome trace has %d events, captured %d", spec.ID, n, len(trial.TraceEvents))
		}
		last := sim.Time(0)
		for _, ev := range trial.TraceEvents {
			if ev.At < last {
				t.Fatalf("%s: timestamps regress: %v after %v", spec.ID, ev.At, last)
			}
			last = ev.At
		}
		all = append(all, trial.TraceEvents...)
	}
	want := map[string]bool{"hw.world_switch": false, "hw.ipi": false, "rpc.post": false}
	for _, ev := range all {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q event in any traced Table 2 trial", name)
		}
	}
}

// TestTrialCountersCaptured checks that the always-on counter bank comes
// back on every trial, traced or not, and survives pooled execution.
func TestTrialCountersCaptured(t *testing.T) {
	e, _ := Lookup("table3")
	specs := e.Specs(Profile{Seed: 42})
	ctx := NewTrialContext()
	for _, spec := range specs[:1] {
		trial, err := ExecuteIn(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(trial.Counters) == 0 {
			t.Fatal("trial captured no engine counters")
		}
		for _, key := range []string{"hw.ipis", "core.irq_injections"} {
			if trial.Counters[key] == 0 {
				t.Errorf("counter %q is zero in an IPI benchmark", key)
			}
		}
		// A second trial on the same pooled context must not inherit the
		// first trial's counts, nor lose any.
		again, err := ExecuteIn(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Counters, trial.Counters) {
			t.Errorf("pooled rerun counters differ\nfirst: %v\nrerun: %v", trial.Counters, again.Counters)
		}
	}
}

// TestTable4ValuesMatchCounters: Table 4's exit counts are vm0's
// counters in the engine bank, so every Table 4 trial reports the same
// numbers in its Values as in its captured Counters.
func TestTable4ValuesMatchCounters(t *testing.T) {
	e, _ := Lookup("table4")
	ctx := NewTrialContext()
	for _, spec := range e.Specs(Profile{Seed: 42}) {
		trial, err := ExecuteIn(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if trial.V("exits.total") == 0 {
			t.Errorf("%s: no exits.total value", spec.ID)
		}
		for _, key := range []string{"exits.total", "exits.interrupt"} {
			if got, want := trial.V(key), float64(trial.Counters["vm0."+key]); got != want {
				t.Errorf("%s: Values[%q] = %v, Counters[%q] = %v", spec.ID, key, got, "vm0."+key, want)
			}
		}
	}
}

// TestRunnerRunsEachItemOnce checks the pool's claim cursor: with more
// items than workers and with more workers than items, every index runs
// exactly once on a worker slot the context table has, and Progress
// sees the right total and reaches it.
func TestRunnerRunsEachItemOnce(t *testing.T) {
	for _, n := range []int{37, 3} {
		const workers = 4
		runs := make([]atomic.Int32, n)
		var calls atomic.Int64
		var reached atomic.Bool
		r := &Runner{Workers: workers}
		r.Progress = func(done, total int) {
			calls.Add(1)
			if total != n {
				t.Errorf("n=%d: progress total = %d", n, total)
			}
			if done == n {
				reached.Store(true)
			}
		}
		r.runItems(n, func(w, i int) {
			if w < 0 || w >= min(workers, n) {
				t.Errorf("n=%d: item %d ran on worker %d", n, i, w)
			}
			runs[i].Add(1)
		})
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Errorf("n=%d: item %d ran %d times, want 1", n, i, c)
			}
		}
		if calls.Load() != int64(n) || !reached.Load() {
			t.Errorf("n=%d: progress: %d calls, reached %d: %v", n, calls.Load(), n, reached.Load())
		}
	}
}
