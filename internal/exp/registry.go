package exp

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"coregap/internal/trace"
)

// Artifact is one named output of an experiment: a reproduced paper
// table or figure, renderable as text and as CSV.
type Artifact struct {
	// Name is the artifact's file stem for CSV export (e.g. "fig8-latency").
	Name string
	// Item is the table or figure itself.
	Item interface {
		String() string
		CSV() string
	}
}

// Report is the reduced outcome of running one experiment: its artifacts
// in presentation order, extra headline lines (statistics the paper
// quotes in prose), and the per-trial results they were reduced from.
type Report struct {
	Experiment string
	Title      string
	Paper      string // the paper's published numbers, for side-by-side display
	Artifacts  []Artifact
	Lines      []string
	Trials     []Trial
	// Work is the summed host wall-clock of the experiment's trials:
	// aggregate worker time, not elapsed time, since trials of several
	// experiments interleave on the shared worker pool.
	Work time.Duration
}

// Value reports the named value of the identified trial (0 when absent) —
// the generic accessor consumers use when they need one number out of a
// report rather than a whole artifact.
func (r *Report) Value(trialID, key string) float64 {
	for _, t := range r.Trials {
		if t.Spec.ID == trialID {
			return t.Values[key]
		}
	}
	return 0
}

// Metas collects the run metadata of every trial, in trial order.
func (r *Report) Metas() []trace.RunMeta {
	metas := make([]trace.RunMeta, len(r.Trials))
	for i, t := range r.Trials {
		metas[i] = t.Meta
	}
	return metas
}

// CountersCSV renders the per-trial engine counter banks as CSV:
// trial,counter,value rows, in trial then counter order. Trial IDs may
// hold commas ("busy-wait, no delegation@8"), so fields are quoted where
// CSV needs it.
func (r *Report) CountersCSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write([]string{"trial", "counter", "value"})
	for _, t := range r.Trials {
		names := make([]string, 0, len(t.Counters))
		for name := range t.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			w.Write([]string{t.Spec.ID, name, strconv.FormatUint(t.Counters[name], 10)})
		}
	}
	w.Flush()
	return b.String()
}

// Experiment is one registered, named experiment: a declarative spec
// generator plus a pure reducer from the ordered trial results to the
// paper-shaped report.
type Experiment struct {
	// Name is the registry key (e.g. "table2", "fig6", "tdx").
	Name string
	// Title is the one-line description benchsuite prints.
	Title string
	// Desc explains what the experiment measures and how, in a sentence
	// or two — what coregapctl -list shows under each name.
	Desc string
	// Paper quotes the paper's published numbers for this artifact.
	Paper string
	// Specs generates the trial list for a profile. It must be pure: the
	// same profile always yields the same specs in the same order.
	Specs func(p Profile) []ScenarioSpec
	// Reduce folds the trial results (in Specs order) into the report.
	// It must depend only on the profile and the trials' Spec/Values/
	// Labels/Windows fields, never on wall-clock metadata.
	Reduce func(p Profile, trials []Trial) *Report
}

var (
	registry = map[string]*Experiment{}
	order    []string
)

// Register adds an experiment to the registry. Duplicate names panic:
// they always indicate an init-time programming error.
func Register(e *Experiment) {
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.Name))
	}
	registry[e.Name] = e
	order = append(order, e.Name)
}

// Lookup resolves an experiment by name.
func Lookup(name string) (*Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names reports all registered experiment names in registration order
// (the paper's presentation order).
func Names() []string { return append([]string(nil), order...) }

// Run executes the named experiment with the given runner (nil: default
// pool) and profile.
func Run(name string, p Profile, r *Runner) (*Report, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	return r.RunExperiment(e, p)
}
