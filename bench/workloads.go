package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"coregap/internal/exp"
)

// workload is one fixed set of specs the benchmark runs per pass. Every
// pass runs the whole set through exp.NewRunner(1): one worker, trials
// back to back, each starting from empty modelled µarch state.
type workload struct {
	name string
	why  string
	// exps are the registry experiments a pass runs with
	// Runner.RunExperiments; nil selects the attack battery (RunSpecs over
	// fig3's specs for batterySeeds seeds derived from the run seed).
	exps []string
	full bool
	// nominal is the warm-pass wall time on the reference host (2-CPU
	// x86-64 VM). It fixes how many passes fit in a run of a given
	// length, so every run of one length does the same work on any host.
	nominal time.Duration
}

// legacySuite is the paper's eleven-experiment artifact set.
var legacySuite = []string{"table2", "table3", "table4", "table5", "fig3", "fig6", "fig7", "fig8", "fig9", "tdx", "fig10"}

// batterySeeds is how many seeds the attack-battery workload derives.
const batterySeeds = 200

var workloads = []workload{
	{
		name: "paper-suite", exps: legacySuite, nominal: 1450 * time.Millisecond,
		why: "the 11 legacy experiments, reduced: the artifact set users regenerate; touches every layer",
	},
	{
		name: "coremark-scale", exps: []string{"fig6"}, full: true, nominal: 4600 * time.Millisecond,
		why: "fig6 full, CoreMark-PRO up to 63 dedicated cores: uarch fills and sim RNG skipping dominate",
	},
	{
		name: "openloop-500k", exps: []string{"openloop-hi"}, full: true, nominal: 1250 * time.Millisecond,
		why: "openloop-hi full, 100-500 krps into 2^20 connections: engine dispatch, vmm arrivals, trace recorder",
	},
	{
		name: "attack-battery", nominal: 720 * time.Millisecond,
		why: "fig3 battery x 200 seeds: uarch read path, zero engine events, many short trials",
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// splitmix64 derives a stream of well-mixed seeds from one root seed.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// batterySpecs is fig3's battery specs for n seeds derived from seed,
// with the derived seed's index appended to each trial ID.
func batterySpecs(seed uint64, n int) []exp.ScenarioSpec {
	fig3, ok := exp.Lookup("fig3")
	if !ok {
		panic("bench: fig3 is not registered")
	}
	var specs []exp.ScenarioSpec
	state := seed
	for i := 0; i < n; i++ {
		for _, s := range fig3.Specs(exp.Profile{Seed: splitmix64(&state)}) {
			s.ID = fmt.Sprintf("%s/%03d", s.ID, i)
			specs = append(specs, s)
		}
	}
	return specs
}

// job is a workload bound to a seed, with its specs generated.
type job struct {
	profile exp.Profile
	es      []*exp.Experiment
	specs   []exp.ScenarioSpec // attack battery only
	trials  int                // trials per pass
}

// newJob generates the workload's specs for seed. This is the set-up a
// benchmark process pays before its first pass.
func newJob(w workload, seed uint64, batteryN int) (*job, error) {
	j := &job{profile: exp.Profile{Seed: seed, Full: w.full}}
	if w.exps == nil {
		j.specs = batterySpecs(seed, batteryN)
		j.trials = len(j.specs)
		return j, nil
	}
	for _, name := range w.exps {
		e, ok := exp.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiment %q is not registered", name)
		}
		j.es = append(j.es, e)
		j.trials += len(e.Specs(j.profile))
	}
	return j, nil
}

// pass is one execution of a job's specs, with its timestamps: the run
// through the exp runner, the CSV renders, and the digest.
type pass struct {
	start, runEnd, renderEnd, end time.Time
	// done holds the completion time of every trial, in run order, when
	// the pass was run with marks on.
	done         []time.Time
	trials       []exp.Trial
	failed       int // trials that returned an error
	digest       string
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
}

func (p *pass) wall() time.Duration   { return p.end.Sub(p.start) }
func (p *pass) render() time.Duration { return p.renderEnd.Sub(p.runEnd) }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() [3]uint64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var v [3]uint64
	for i := range s {
		v[i] = s[i].Value.Uint64()
	}
	return v
}

// run executes one pass. With marks set it records each trial's
// completion time through Runner.Progress, for the traced run's spans.
func (j *job) run(marks bool) *pass {
	r := exp.NewRunner(1)
	p := &pass{}
	if marks {
		p.done = make([]time.Time, 0, j.trials)
		r.Progress = func(int, int) { p.done = append(p.done, time.Now()) }
	}
	// Start from a collected heap, as testing.B does before each
	// benchmark, so one pass's garbage is not charged to the next pass's
	// time or peak RSS.
	runtime.GC()
	rt0 := readRuntime()
	p.start = time.Now()
	h := sha256.New()
	if j.es == nil {
		trials, err := r.RunSpecs(j.specs)
		p.runEnd = time.Now()
		p.renderEnd = p.runEnd
		p.trials, p.failed = trials, countErrs(err)
		// The battery's artifact is its verdicts: trial IDs, seeds and
		// leak labels, in ID order.
		lines := make([]string, len(trials))
		for i, t := range trials {
			lines[i] = fmt.Sprintf("%s %d %s\n", t.Spec.ID, t.Spec.Seed, strings.Join(t.Labels["leaks"], ","))
		}
		slices.Sort(lines)
		for _, l := range lines {
			h.Write([]byte(l))
		}
	} else {
		reps, err := r.RunExperiments(j.es, j.profile)
		p.runEnd = time.Now()
		p.failed = countErrs(err)
		var csvs []string
		for _, rep := range reps {
			if rep == nil {
				continue
			}
			p.trials = append(p.trials, rep.Trials...)
			for _, a := range rep.Artifacts {
				csvs = append(csvs, a.Name, a.Item.CSV())
			}
		}
		p.renderEnd = time.Now()
		for _, s := range csvs {
			h.Write([]byte(s))
			h.Write([]byte{'\n'})
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	p.end = time.Now()
	rt1 := readRuntime()
	p.allocBytes, p.allocObjects, p.gcCycles = rt1[0]-rt0[0], rt1[1]-rt0[1], rt1[2]-rt0[2]
	return p
}

// countErrs counts the leaf errors in the tree errors.Join and %w
// wrapping build: the runner joins one error per failed trial.
func countErrs(err error) int {
	switch e := err.(type) {
	case nil:
		return 0
	case interface{ Unwrap() []error }:
		n := 0
		for _, c := range e.Unwrap() {
			n += countErrs(c)
		}
		return n
	}
	if u := errors.Unwrap(err); u != nil {
		return countErrs(u)
	}
	return 1
}
