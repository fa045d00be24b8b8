package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes independent trials across a pool of goroutines. Each
// trial is seeded entirely from its spec, so the result list is
// bit-identical to serial execution regardless of worker count or
// scheduling: results are written into ordered slots, and nothing
// except RunMeta.Wall depends on the host.
//
// Each worker goroutine owns one pooled TrialContext — engine, machine,
// granule table, metric set — rewound per trial instead of rebuilt, so
// the steady-state trial allocates only its thin per-trial object
// graph. Pooling does not affect results (ExecuteIn's contract);
// Execute is the unpooled reference.
//
// Workers claim trials from one shared cursor, so trials start in spec
// order. With RunExperiments the pool spans *all* experiments' trials
// at once, so one experiment's long tail (e.g. fig6's largest-N run)
// does not idle workers that could be executing the next experiment's
// trials.
type Runner struct {
	// Workers is the pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Progress, when set, is called after every completed trial with the
	// running completion count and the total. It runs on worker
	// goroutines (possibly concurrently), so it must be cheap and
	// thread-safe; benchsuite's -progress uses it for a live line.
	Progress func(done, total int)
}

// NewRunner returns a runner with the given pool size (<= 0: GOMAXPROCS).
func NewRunner(workers int) *Runner { return &Runner{Workers: workers} }

func (r *Runner) workers() int {
	if r == nil || r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// runItems executes exec(worker, 0..n-1) on the pool. Every index runs
// exactly once, tagged with the worker that ran it so the caller can
// thread per-worker state (the pooled contexts) through. Workers take
// the next unclaimed index from a shared cursor, so items start in
// index order; ordered result slots make completion order irrelevant
// to the output. A single worker runs inline on the calling goroutine.
func (r *Runner) runItems(n int, exec func(worker, item int)) {
	workers := r.workers()
	if workers > n {
		workers = n
	}
	var done atomic.Int64
	finish := func() {
		if r != nil && r.Progress != nil {
			r.Progress(int(done.Add(1)), n)
		}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			exec(0, i)
			finish()
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				exec(self, i)
				finish()
			}
		}(w)
	}
	wg.Wait()
}

// contexts builds the lazy per-worker context table: slot w is created
// on worker w's first trial and reused for all its later ones.
func (r *Runner) contexts() []*TrialContext {
	return make([]*TrialContext, r.workers())
}

func contextFor(ctxs []*TrialContext, w int) *TrialContext {
	if ctxs[w] == nil {
		ctxs[w] = NewTrialContext()
	}
	return ctxs[w]
}

// RunSpecs executes every spec and returns the trials in spec order.
// All trials are attempted even when some fail; the joined error names
// each failed trial.
func (r *Runner) RunSpecs(specs []ScenarioSpec) ([]Trial, error) {
	trials := make([]Trial, len(specs))
	errs := make([]error, len(specs))
	ctxs := r.contexts()
	r.runItems(len(specs), func(w, i int) {
		trials[i], errs[i] = ExecuteIn(contextFor(ctxs, w), specs[i])
	})
	return trials, errors.Join(errs...)
}

// finishReport stamps the reduced report with the experiment's identity
// and attaches the ordered trials.
func finishReport(rep *Report, e *Experiment, trials []Trial) {
	rep.Experiment = e.Name
	rep.Title = e.Title
	rep.Paper = e.Paper
	rep.Trials = trials
	for i := range rep.Trials {
		rep.Trials[i].Meta.Experiment = e.Name
		rep.Work += rep.Trials[i].Meta.Wall
	}
}

// RunExperiments generates the specs of every given experiment up
// front, executes the union of all trials on one worker pool, and
// after the barrier reduces each experiment in order. Reports come back
// in experiment order; a failed experiment leaves a nil slot and
// contributes to the joined error, while the others still reduce.
func (r *Runner) RunExperiments(es []*Experiment, p Profile) ([]*Report, error) {
	type slot struct{ exp, trial int }
	specs := make([][]ScenarioSpec, len(es))
	trials := make([][]Trial, len(es))
	terrs := make([][]error, len(es))
	var flat []slot
	for i, e := range es {
		specs[i] = e.Specs(p)
		trials[i] = make([]Trial, len(specs[i]))
		terrs[i] = make([]error, len(specs[i]))
		for j := range specs[i] {
			flat = append(flat, slot{i, j})
		}
	}
	ctxs := r.contexts()
	r.runItems(len(flat), func(w, k int) {
		s := flat[k]
		trials[s.exp][s.trial], terrs[s.exp][s.trial] =
			ExecuteIn(contextFor(ctxs, w), specs[s.exp][s.trial])
	})
	reports := make([]*Report, len(es))
	var errs []error
	for i, e := range es {
		if err := errors.Join(terrs[i]...); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", e.Name, err))
			continue
		}
		rep := e.Reduce(p, trials[i])
		finishReport(rep, e, trials[i])
		reports[i] = rep
	}
	return reports, errors.Join(errs...)
}

// RunExperiment generates the experiment's specs for the profile,
// executes them on the pool, and reduces the ordered results.
func (r *Runner) RunExperiment(e *Experiment, p Profile) (*Report, error) {
	reps, err := r.RunExperiments([]*Experiment{e}, p)
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// run is the serial-compatibility path used by the legacy Run* wrappers:
// execute the given specs on the default pool and panic on failure, as
// the pre-registry experiment functions did.
func run(specs []ScenarioSpec) []Trial {
	trials, err := (*Runner)(nil).RunSpecs(specs)
	if err != nil {
		panic(err)
	}
	return trials
}
