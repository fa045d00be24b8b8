package exp

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// renderReport flattens every deterministic part of a report — artifact
// CSVs, headline lines, per-trial values and labels — into one string
// for byte-level comparison. Meta.Wall is deliberately excluded: it is
// the only host-dependent field.
func renderReport(t *testing.T, rep *Report) string {
	t.Helper()
	var b strings.Builder
	for _, a := range rep.Artifacts {
		b.WriteString(a.Name)
		b.WriteByte('\n')
		b.WriteString(a.Item.CSV())
	}
	for _, l := range rep.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, tr := range rep.Trials {
		b.WriteString(tr.Spec.ID)
		b.WriteByte('\n')
		meta := tr.Meta
		meta.Wall = 0
		b.WriteString(meta.String())
		b.WriteByte('\n')
		b.WriteString(trialValues(tr))
		var wnames []string
		for name := range tr.Windows {
			wnames = append(wnames, name)
		}
		sort.Strings(wnames)
		for _, name := range wnames {
			for _, st := range tr.Windows[name] {
				fmt.Fprintf(&b, "win %s %+v\n", name, st)
			}
		}
	}
	return b.String()
}

func trialValues(tr Trial) string {
	var keys []string
	for k := range tr.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v\n", k, tr.Values[k])
	}
	keys = keys[:0]
	for k := range tr.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, strings.Join(tr.Labels[k], ";"))
	}
	return b.String()
}

// TestRunnerParallelMatchesSerial is the determinism regression test of
// the parallel runner: for the same root seed, an 8-worker run must be
// byte-identical to a serial run — artifacts, headline lines, values,
// labels and deterministic metadata alike.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	p := Profile{Seed: 42}
	for _, name := range []string{"table2", "table3", "fig3", "tdx"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		serial, err := NewRunner(1).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		parallel, err := NewRunner(8).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if s, pl := renderReport(t, serial), renderReport(t, parallel); s != pl {
			t.Errorf("%s: parallel output differs from serial\nserial:\n%s\nparallel:\n%s", name, s, pl)
		}
	}
}

// TestRunExperimentsCrossPoolDeterminism drives the worker pool
// the way benchsuite -exp all does — one flat queue over several
// experiments' trials — and checks the reduced reports are byte-equal
// to per-experiment serial runs.
func TestRunExperimentsCrossPoolDeterminism(t *testing.T) {
	p := Profile{Seed: 42}
	names := []string{"table2", "table3", "fig3", "tdx"}
	var es []*Experiment
	for _, n := range names {
		e, ok := Lookup(n)
		if !ok {
			t.Fatalf("experiment %q not registered", n)
		}
		es = append(es, e)
	}
	pooled, err := NewRunner(8).RunExperiments(es, p)
	if err != nil {
		t.Fatalf("pooled: %v", err)
	}
	for i, e := range es {
		serial, err := NewRunner(1).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s serial: %v", e.Name, err)
		}
		if s, pl := renderReport(t, serial), renderReport(t, pooled[i]); s != pl {
			t.Errorf("%s: cross-experiment pool output differs from serial\nserial:\n%s\npooled:\n%s", e.Name, s, pl)
		}
	}
}

// TestRunExperimentsPartialFailure: one failing experiment yields a nil
// report slot and a joined error naming it; the healthy experiment
// still reduces.
func TestRunExperimentsPartialFailure(t *testing.T) {
	good, _ := Lookup("table2")
	bad := &Experiment{
		Name:  "bad",
		Title: "always fails",
		Specs: func(p Profile) []ScenarioSpec {
			return []ScenarioSpec{{ID: "broken", Config: ConfigGapped, Cores: 2, Seed: 1,
				Workload: Workload{Kind: "no-such-kind"}}}
		},
		Reduce: func(p Profile, trials []Trial) *Report { return &Report{} },
	}
	reps, err := NewRunner(4).RunExperiments([]*Experiment{good, bad}, Profile{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v, want failure naming experiment \"bad\"", err)
	}
	if reps[0] == nil || reps[0].Experiment != "table2" || len(reps[0].Trials) == 0 {
		t.Fatal("healthy experiment did not reduce")
	}
	if reps[1] != nil {
		t.Fatal("failed experiment produced a report")
	}
}

// TestRunnerRepeatable: two consecutive runs with the same seed are
// byte-identical; a different seed changes at least the recorded seeds.
func TestRunnerRepeatable(t *testing.T) {
	e, _ := Lookup("table3")
	r := NewRunner(4)
	first, err := r.RunExperiment(e, Profile{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.RunExperiment(e, Profile{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if renderReport(t, first) != renderReport(t, second) {
		t.Fatal("same seed, different output")
	}
	other, err := r.RunExperiment(e, Profile{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if first.Trials[0].Meta.Seed == other.Trials[0].Meta.Seed {
		t.Fatal("seed not recorded in metadata")
	}
}

// TestRegistryComplete: all eleven experiments of the evaluation are
// registered in the paper's presentation order, followed by the repo's
// open-loop extensions, and resolvable by name.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table2", "table3", "table4", "table5", "fig3",
		"fig6", "fig7", "fig8", "fig9", "tdx", "fig10",
		"openloop", "openloop-burst", "openloop-hi"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Fatalf("registered[%d] = %q, want %q (full: %v)", i, got[i], name, got)
		}
		e, ok := Lookup(name)
		if !ok || e.Name != name {
			t.Fatalf("Lookup(%q) = %v, %v", name, e, ok)
		}
		if e.Title == "" || e.Specs == nil || e.Reduce == nil {
			t.Fatalf("experiment %q incomplete", name)
		}
		if specs := e.Specs(Profile{Seed: 1}); len(specs) == 0 {
			t.Fatalf("experiment %q generates no specs", name)
		}
	}
	if _, err := Run("nope", Profile{}, nil); err == nil {
		t.Fatal("Run of unknown experiment must fail")
	}
}

// TestSpecIDsUnique: within each experiment, reduced and full profiles
// generate unique trial IDs (Report.Value depends on it).
func TestSpecIDsUnique(t *testing.T) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		for _, p := range []Profile{{Seed: 1}, {Seed: 1, Full: true}} {
			seen := map[string]bool{}
			for _, s := range e.Specs(p) {
				if seen[s.ID] {
					t.Errorf("%s (full=%v): duplicate trial ID %q", name, p.Full, s.ID)
				}
				seen[s.ID] = true
			}
		}
	}
}

// TestRunnerSurfacesErrors: a failing trial is reported with its
// identity; the other trials still execute.
func TestRunnerSurfacesErrors(t *testing.T) {
	specs := []ScenarioSpec{
		{ID: "ok", Config: ConfigGapped, Cores: 2, Seed: 1,
			Workload: Workload{Kind: WLNullRMMSync, Rounds: 10}},
		{ID: "broken", Config: ConfigGapped, Cores: 2, Seed: 1,
			Workload: Workload{Kind: "no-such-kind"}},
	}
	trials, err := NewRunner(2).RunSpecs(specs)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want trial identity", err)
	}
	if trials[0].V("ns") == 0 {
		t.Fatal("healthy trial did not run")
	}
}

// TestExecuteRecoversPanics: a panic inside the interpreter (here: an
// unknown config) comes back as an error naming the trial, never a
// crashed worker.
func TestExecuteRecoversPanics(t *testing.T) {
	_, err := Execute(ScenarioSpec{ID: "bad-config", Config: "warp-speed", Cores: 2, Seed: 1,
		Workload: Workload{Kind: WLCoreMark, VCPUs: 1, Work: 1000}})
	if err == nil || !strings.Contains(err.Error(), "bad-config") {
		t.Fatalf("err = %v, want recovered panic with trial identity", err)
	}
}

// TestParseConfig covers the command-line aliases.
func TestParseConfig(t *testing.T) {
	for in, want := range map[string]Config{
		"baseline": ConfigBaseline, "shared": ConfigBaseline, "shared-core": ConfigBaseline,
		"gapped": ConfigGapped, "core-gapped": ConfigGapped,
		"nodeleg": ConfigGappedNoDeleg, "gapped-nodeleg": ConfigGappedNoDeleg,
		"busywait": ConfigGappedBusyWait, "busywait-deleg": ConfigGappedBusyWaitDeleg,
	} {
		got, err := ParseConfig(in)
		if err != nil || got != want {
			t.Errorf("ParseConfig(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseConfig("warp-speed"); err == nil {
		t.Error("ParseConfig must reject unknown names")
	}
	for _, c := range []Config{ConfigBaseline, ConfigGapped, ConfigGappedNoDeleg,
		ConfigGappedBusyWait, ConfigGappedBusyWaitDeleg} {
		_ = c.Options() // must not panic
	}
}
