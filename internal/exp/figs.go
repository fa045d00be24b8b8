package exp

import (
	"fmt"
	"strings"

	"coregap/internal/attack"
	"coregap/internal/sim"
	"coregap/internal/trace"
	"coregap/internal/vulncat"
)

// This file declares Figures 3, 6 and 7 as spec generators plus pure
// reducers.

// ---------------------------------------------------------------- Fig. 3

// Fig3Result reproduces Figure 3: the timeline of transient-execution
// vulnerabilities and CPU bugs breaking security isolation since 2018,
// annotated with core-gapping's mitigation verdicts, plus the empirical
// battery backing them.
type Fig3Result struct {
	Timeline *trace.Table
	Summary  vulncat.Summary
	// Battery results for the three schedulings.
	ZeroDayLeaks    []string // shared-core, no applicable mitigation
	MitigatedLeaks  []string // shared-core, monitor applies deployed flushes
	CoreGappedLeaks []string // core-gapped placement
}

func fig3Specs(seed uint64) []ScenarioSpec {
	battery := func(sched attack.Scheduling) Workload {
		return Workload{Kind: WLBattery, Sched: sched}
	}
	return []ScenarioSpec{
		{ID: "zero-day", Config: ConfigBaseline, Cores: 2, Seed: seed,
			Workload: battery(attack.SharedTimeSlicedNoFlush)},
		{ID: "mitigated", Config: ConfigBaseline, Cores: 2, Seed: seed,
			Workload: battery(attack.SharedTimeSliced)},
		{ID: "gapped", Config: ConfigGapped, Cores: 2, Seed: seed,
			Workload: battery(attack.CoreGappedPlacement)},
	}
}

// reduceFig3 builds the timeline table (a pure function of the
// catalogue) and folds in the battery outcomes.
func reduceFig3(trials []Trial) Fig3Result {
	vulns := vulncat.Catalogue()
	tb := trace.NewTable("Figure 3", "Vulnerabilities breaking CPU security isolation (2018-2024)",
		"Year", "Class", "Scope", "Structures", "Core-gapping verdict")
	for _, v := range vulns {
		var structs []string
		for _, k := range v.Structures {
			structs = append(structs, k.String())
		}
		verdict := "MITIGATED"
		if !v.MitigatedByCoreGapping() {
			verdict = "out of reach (" + v.Scope.String() + ")"
		}
		tb.AddRow(v.Name,
			fmt.Sprintf("%d", v.Year), v.Class.String(), v.Scope.String(),
			strings.Join(structs, ","), verdict)
	}

	res := Fig3Result{Timeline: tb, Summary: vulncat.Summarize(vulns)}
	for _, t := range trials {
		switch t.Spec.ID {
		case "zero-day":
			res.ZeroDayLeaks = t.Labels["leaks"]
		case "mitigated":
			res.MitigatedLeaks = t.Labels["leaks"]
		case "gapped":
			res.CoreGappedLeaks = t.Labels["leaks"]
		}
	}
	return res
}

// RunFig3 builds the timeline table and runs the attack battery that
// verifies each verdict against the modelled microarchitecture.
func RunFig3(seed uint64) Fig3Result {
	return reduceFig3(run(fig3Specs(seed)))
}

// SecuritySummary renders the battery outcome in the shape of the Fig. 3
// caption: "Only NetSpectre and CrossTalk demonstrated cross-core leaks
// in typical cloud VM settings."
func (r Fig3Result) SecuritySummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "catalogued vulnerabilities: %d (%d transient, %d CPU bugs)\n",
		r.Summary.Total, r.Summary.TransientCount, r.Summary.ArchBugCount)
	fmt.Fprintf(&b, "mitigated by core gapping:  %d\n", r.Summary.Mitigated)
	fmt.Fprintf(&b, "beyond core boundaries:     %v\n", r.Summary.UnmitigatedNames)
	fmt.Fprintf(&b, "attack battery:\n")
	fmt.Fprintf(&b, "  shared core, zero-day:    %d leak\n", len(r.ZeroDayLeaks))
	fmt.Fprintf(&b, "  shared core, mitigated:   %d leak\n", len(r.MitigatedLeaks))
	fmt.Fprintf(&b, "  core-gapped:              %d leak %v\n", len(r.CoreGappedLeaks), r.CoreGappedLeaks)
	return b.String()
}

// ---------------------------------------------------------------- Fig. 6

// Fig6Result is the CoreMark-PRO scaling experiment (Fig. 6) plus the
// §5.2 run-to-run latency statistic.
type Fig6Result struct {
	Figure *trace.Figure
	// RunToRunMean/Stddev at the largest core count, full design — the
	// paper reports 26.18 ± 0.96 µs, stable across guest core counts.
	RunToRunMean   sim.Duration
	RunToRunStddev sim.Duration
}

// fig6Specs sweeps the CoreMark-PRO scaling grid: shared-core baseline
// VMs with N vCPUs on N cores versus core-gapped CVMs with N-1 dedicated
// cores plus one host core, and the two busy-wait ablations (Fig. 6's
// cyan lines), following §5.1's equal-resources accounting.
func fig6Specs(coreCounts []int, workPerVCPU sim.Duration, seed uint64) []ScenarioSpec {
	if len(coreCounts) == 0 {
		coreCounts = []int{2, 4, 8, 16, 32, 48, 64}
	}
	var specs []ScenarioSpec
	point := func(series string, cfg Config, N, vcpus int) ScenarioSpec {
		return ScenarioSpec{
			ID:     fmt.Sprintf("%s@%d", series, N),
			Config: cfg, Cores: N, Seed: seed,
			Workload: Workload{Kind: WLCoreMark, VCPUs: vcpus, Work: workPerVCPU},
			Horizon:  sim.Duration(200) * workPerVCPU,
			Series:   series, X: float64(N),
		}
	}
	for _, N := range coreCounts {
		if N < 2 {
			continue
		}
		specs = append(specs,
			point("shared-core", ConfigBaseline, N, N),
			point("core-gapped", ConfigGapped, N, N-1),
			point("busy-wait (delegated)", ConfigGappedBusyWaitDeleg, N, N-1),
			point("busy-wait, no delegation", ConfigGappedBusyWait, N, N-1))
	}
	return specs
}

func reduceFig6(trials []Trial) Fig6Result {
	fig := trace.NewFigure("Figure 6", "CoreMark-PRO scaling (shared-core vs core-gapped)",
		"cores", "score (effective cores)")
	var res Fig6Result
	for _, t := range trials {
		fig.Series(t.Spec.Series).Add(t.Spec.X, t.V("score"))
		// The §5.2 statistic: the full design's run-to-run latency at the
		// largest swept core count (trials arrive in ascending-N order).
		if t.Spec.Series == "core-gapped" && t.V("runtorun.count") > 0 {
			res.RunToRunMean = t.Dur("runtorun.mean.ns")
			res.RunToRunStddev = t.Dur("runtorun.stddev.ns")
		}
	}
	res.Figure = fig
	return res
}

// RunFig6 reproduces the CoreMark-PRO scaling figure. Higher is better;
// the x axis is total physical cores.
func RunFig6(coreCounts []int, workPerVCPU sim.Duration, seed uint64) Fig6Result {
	return reduceFig6(run(fig6Specs(coreCounts, workPerVCPU, seed)))
}

// ---------------------------------------------------------------- Fig. 7

// fig7Specs sweeps an increasing count of 4-core VMs, with every gapped
// VMM pinned to the single host core.
func fig7Specs(maxVMs int, workPerVCPU sim.Duration, seed uint64) []ScenarioSpec {
	if maxVMs <= 0 {
		maxVMs = 16
	}
	const vcpusPerVM = 4
	var specs []ScenarioSpec
	for _, mode := range []struct {
		series string
		cfg    Config
	}{
		{"shared-core", ConfigBaseline},
		{"core-gapped", ConfigGapped},
	} {
		for k := 1; k <= maxVMs; k *= 2 {
			cores := vcpusPerVM * k
			if mode.cfg != ConfigBaseline {
				cores++ // the single host core all VMMs share
			}
			specs = append(specs, ScenarioSpec{
				ID:     fmt.Sprintf("%s@%d", mode.series, k),
				Config: mode.cfg, Cores: cores, Seed: seed,
				Workload: Workload{Kind: WLCoreMark, VMs: k, VCPUs: vcpusPerVM, Work: workPerVCPU},
				Horizon:  sim.Duration(200) * workPerVCPU,
				Series:   mode.series, X: float64(k),
			})
		}
	}
	return specs
}

func reduceFig7(trials []Trial) *trace.Figure {
	fig := trace.NewFigure("Figure 7", "Scaling to multiple 4-core VMs",
		"VMs", "aggregate score")
	for _, t := range trials {
		fig.Series(t.Spec.Series).Add(t.Spec.X, t.V("score"))
	}
	return fig
}

// RunFig7 reproduces the multi-VM scaling figure: the y axis is the
// aggregate CoreMark-PRO score.
func RunFig7(maxVMs int, workPerVCPU sim.Duration, seed uint64) *trace.Figure {
	return reduceFig7(run(fig7Specs(maxVMs, workPerVCPU, seed)))
}

// The figure experiments, registered in paper order by register.go.
var (
	expFig3 = &Experiment{
		Name:  "fig3",
		Desc:  "Replays the transient-execution attack battery under shared-core, core-gapped, and partitioned-LLC scheduling and reports which catalogue vulnerabilities still leak.",
		Title: "Figure 3: vulnerability timeline + attack battery",
		Paper: "paper: only NetSpectre and CrossTalk demonstrated cross-core leaks in cloud VM settings",
		Specs: func(p Profile) []ScenarioSpec { return fig3Specs(p.Seed) },
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceFig3(trials)
			return &Report{
				Artifacts: []Artifact{{Name: "fig3", Item: r.Timeline}},
				Lines:     []string{r.SecuritySummary()},
			}
		},
	}

	expFig6 = &Experiment{
		Name:  "fig6",
		Desc:  "Sweeps CoreMark-PRO across guest core counts and polling modes to reproduce the scaling and run-to-run stability figure.",
		Title: "Figure 6: CoreMark-PRO scaling",
		Paper: "paper run-to-run: 26.18 ± 0.96 us, stable across guest core counts",
		Specs: func(p Profile) []ScenarioSpec {
			cores, work := []int{2, 4, 8, 16}, 300*sim.Millisecond
			if p.Full {
				cores, work = []int{2, 4, 8, 16, 32, 48, 64}, sim.Second
			}
			return fig6Specs(cores, work, p.Seed)
		},
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceFig6(trials)
			return &Report{
				Artifacts: []Artifact{{Name: "fig6", Item: r.Figure}},
				Lines: []string{fmt.Sprintf("run-to-run latency: %.2f ± %.2f us",
					r.RunToRunMean.Micros(), r.RunToRunStddev.Micros())},
			}
		},
	}

	expFig7 = &Experiment{
		Name:  "fig7",
		Desc:  "Scales multiple 4-core VMs on one host to show aggregate throughput and the effect of many VMMs sharing one host core.",
		Title: "Figure 7: scaling to multiple 4-core VMs",
		Paper: "paper: aggregate scales linearly; 16 VMMs on one host core do not harm throughput",
		Specs: func(p Profile) []ScenarioSpec {
			vms, work := 8, 200*sim.Millisecond
			if p.Full {
				vms, work = 16, sim.Second
			}
			return fig7Specs(vms, work, p.Seed)
		},
		Reduce: func(p Profile, trials []Trial) *Report {
			return &Report{Artifacts: []Artifact{{Name: "fig7", Item: reduceFig7(trials)}}}
		},
	}
)
