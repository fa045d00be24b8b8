package exp

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"coregap/internal/obs"
	"coregap/internal/sim"
)

// TestStealQueueDrainedPrefix exercises the head-cursor edge the PR 5
// fix introduced: after the owner drains a prefix, the tail shrinking
// below the head cursor (thief steals) must read as empty on both ends,
// never re-deal a drained item.
func TestStealQueueDrainedPrefix(t *testing.T) {
	q := &stealQueue{items: []int{0, 1, 2}}
	if it, ok := q.pop(); !ok || it != 0 {
		t.Fatalf("pop = %d,%v, want 0,true", it, ok)
	}
	if it, ok := q.pop(); !ok || it != 1 {
		t.Fatalf("pop = %d,%v, want 1,true", it, ok)
	}
	// head == 2, items == [0,1,2]: one item left, reachable either way.
	if it, ok := q.steal(); !ok || it != 2 {
		t.Fatalf("steal = %d,%v, want 2,true", it, ok)
	}
	// Now len(items) == 2 < head == 2: both ends must report empty.
	if it, ok := q.pop(); ok {
		t.Fatalf("pop on drained queue returned %d", it)
	}
	if it, ok := q.steal(); ok {
		t.Fatalf("steal on drained queue returned %d", it)
	}

	// Mirror order: thief first, then the owner runs past the new end.
	q = &stealQueue{items: []int{0, 1, 2}}
	if it, ok := q.steal(); !ok || it != 2 {
		t.Fatalf("steal = %d,%v, want 2,true", it, ok)
	}
	got := []bool{false, false, false}
	for {
		it, ok := q.pop()
		if !ok {
			break
		}
		got[it] = true
	}
	if !got[0] || !got[1] || got[2] {
		t.Fatalf("owner drained %v, want items 0 and 1 only", got)
	}
}

// TestStealQueueConcurrent races one owner against several thieves
// (meaningful under -race): every item must be claimed exactly once.
func TestStealQueueConcurrent(t *testing.T) {
	const n = 10000
	const thieves = 3
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	q := &stealQueue{items: items}
	var mu sync.Mutex
	seen := make(map[int]int, n)
	claim := func(it int) {
		mu.Lock()
		seen[it]++
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(1 + thieves)
	go func() {
		defer wg.Done()
		for {
			it, ok := q.pop()
			if !ok {
				return
			}
			claim(it)
		}
	}()
	for i := 0; i < thieves; i++ {
		go func() {
			defer wg.Done()
			for {
				it, ok := q.steal()
				if !ok {
					return
				}
				claim(it)
			}
		}()
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("claimed %d distinct items, want %d", len(seen), n)
	}
	for it, c := range seen {
		if c != 1 {
			t.Fatalf("item %d claimed %d times", it, c)
		}
	}
}

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
		if err := obs.ChromeTrace(&buf, "table2 "+spec.ID, trial.TraceEvents); err != nil {
			t.Fatalf("%s: ChromeTrace: %v", spec.ID, err)
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

// TestRunnerWorkerStats checks the harness self-metrics: every trial is
// attributed to exactly one worker, and the progress callback sees every
// completion.
func TestRunnerWorkerStats(t *testing.T) {
	e, _ := Lookup("table3")
	specs := e.Specs(Profile{Seed: 42})
	var mu sync.Mutex
	calls := 0
	lastDone := 0
	r := &Runner{Workers: 2}
	r.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > lastDone {
			lastDone = done
		}
		if total != len(specs) {
			t.Errorf("progress total = %d, want %d", total, len(specs))
		}
	}
	if _, err := r.RunSpecs(specs); err != nil {
		t.Fatal(err)
	}
	stats := r.WorkerStats()
	if len(stats) == 0 {
		t.Fatal("no worker stats after a run")
	}
	trials := 0
	for _, st := range stats {
		trials += st.Trials
		if st.Busy < 0 || st.Idle < 0 {
			t.Errorf("worker %d has negative time: busy=%v idle=%v", st.Worker, st.Busy, st.Idle)
		}
	}
	if trials != len(specs) {
		t.Errorf("workers report %d trials, want %d", trials, len(specs))
	}
	if calls != len(specs) || lastDone != len(specs) {
		t.Errorf("progress: %d calls, max done %d, want %d", calls, lastDone, len(specs))
	}
}
