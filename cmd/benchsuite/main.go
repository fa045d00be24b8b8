// Command benchsuite regenerates every table and figure of the paper's
// evaluation (§5) and prints them in the paper's shape, side by side with
// the published values where the paper reports exact numbers.
//
// Usage:
//
//	benchsuite [-exp all|table2|...|fig10|tdx|openloop] [-full] [-seed N]
//	           [-parallel N] [-json] [-csv DIR] [-v] [-progress]
//	           [-counters] [-cpuprofile FILE] [-memprofile FILE]
//
// Experiments come from the internal/exp registry; -exp list prints
// them, and -exp accepts a comma-separated subset (e.g.
// -exp table2,table5,openloop) run in registry order. All selected
// experiments' trials are flattened onto a single
// pool of -parallel workers (default: GOMAXPROCS), so a long trial in
// one experiment never idles workers that could run the next
// experiment's trials; results are bit-identical to a serial run for
// the same seed, whatever the worker count. Each worker reuses one
// pooled simulation context (engine, machine, granule table, metric
// set) across its trials; the granule table allocates pages only for
// the memory trials delegate, so a worker's footprint follows what its
// trials touch, not the modelled machine's 16 GiB.
// Without -full, reduced sweeps keep the total runtime in the minutes
// range; -full runs the paper-sized configurations (Fig. 6 up to 63
// dedicated cores).
//
// -cpuprofile and -memprofile write standard pprof profiles of the run
// (`go tool pprof` reads them), so performance work starts from data.
package main

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"flag"

	"coregap/internal/exp"
	"coregap/internal/trace"
)

var (
	expFlag     = flag.String("exp", "all", "experiments to run (all, list, or comma-separated registry names)")
	full        = flag.Bool("full", false, "paper-sized sweeps (slower)")
	seed        = flag.Uint64("seed", 42, "simulation root seed")
	parallel    = flag.Int("parallel", 0, "worker goroutines shared across all experiments (0 = GOMAXPROCS)")
	jsonOut     = flag.Bool("json", false, "emit a machine-readable JSON report to stdout")
	csvDir      = flag.String("csv", "", "also write each artifact as CSV into this directory")
	verbose     = flag.Bool("v", false, "print per-trial run metadata")
	cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	progress    = flag.Bool("progress", false, "print a live trials-completed line to stderr")
	countersCSV = flag.Bool("counters", false, "with -csv, also write each experiment's per-trial engine counters as <exp>-counters.csv")
)

// trialCounters renders an experiment's per-trial engine counter banks
// as CSV (trial,counter,value rows, trial then counter order). Trial IDs
// may hold commas ("busy-wait, no delegation@8"), so fields are quoted
// where CSV needs it.
type trialCounters struct{ rep *exp.Report }

func (tc trialCounters) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Write([]string{"trial", "counter", "value"})
	for _, t := range tc.rep.Trials {
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

// emit writes an artifact's CSV rendering into -csv's directory. Unlike
// printing, a failed write is a hard error: a partial CSV tree silently
// poisons downstream plotting.
func emit(name string, item interface{ CSV() string }) error {
	if *csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return fmt.Errorf("csv %s: %w", name, err)
	}
	path := filepath.Join(*csvDir, name+".csv")
	if err := os.WriteFile(path, []byte(item.CSV()), 0o644); err != nil {
		return fmt.Errorf("csv %s: %w", name, err)
	}
	return nil
}

// jsonTrial is one trial in the -json report.
type jsonTrial struct {
	trace.RunMeta
	Values map[string]float64  `json:"values"`
	Labels map[string][]string `json:"labels,omitempty"`
}

// jsonReport is one experiment in the -json report.
type jsonReport struct {
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Seed       uint64            `json:"seed"`
	Full       bool              `json:"full"`
	Artifacts  map[string]string `json:"artifacts"` // name -> CSV
	Lines      []string          `json:"lines,omitempty"`
	WorkNS     int64             `json:"work_ns"` // summed per-trial wall clock
	Trials     []jsonTrial       `json:"trials"`
}

// fail stops any active CPU profile before exiting non-zero, so a
// failed run still leaves a readable profile behind.
func fail(code int, format string, args ...any) {
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	fmt.Fprintf(os.Stderr, format, args...)
	os.Exit(code)
}

func main() {
	flag.Parse()
	want := strings.ToLower(*expFlag)
	if want == "list" {
		for _, name := range exp.Names() {
			e, _ := exp.Lookup(name)
			fmt.Printf("%-14s %s\n", name, e.Title)
			if e.Desc != "" {
				fmt.Printf("%-14s   %s\n", "", e.Desc)
			}
		}
		return
	}

	wanted := map[string]bool{}
	for _, name := range strings.Split(want, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wanted[name] = true
		}
	}
	var selected []*exp.Experiment
	for _, name := range exp.Names() {
		if !wanted["all"] && !wanted[name] {
			continue
		}
		delete(wanted, name)
		e, _ := exp.Lookup(name)
		selected = append(selected, e)
	}
	delete(wanted, "all")
	if len(wanted) > 0 {
		unknown := make([]string, 0, len(wanted))
		for name := range wanted {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		fail(2, "unknown experiment(s) %v (try -exp list)\n", unknown)
	}
	if len(selected) == 0 {
		fail(2, "no experiment selected from %q (try -exp list)\n", *expFlag)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(1, "benchsuite: cpuprofile: %v\n", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(1, "benchsuite: cpuprofile: %v\n", err)
		}
	}

	runner := exp.NewRunner(*parallel)
	if *progress {
		runner.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d trials", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	profile := exp.Profile{Seed: *seed, Full: *full}
	start := time.Now()
	reports, err := runner.RunExperiments(selected, profile)
	if err != nil {
		fail(1, "benchsuite: %v\n", err)
	}
	wall := time.Since(start)

	var jsonReports []jsonReport
	for _, rep := range reports {
		if *jsonOut {
			jr := jsonReport{
				Experiment: rep.Experiment,
				Title:      rep.Title,
				Seed:       *seed,
				Full:       *full,
				Artifacts:  map[string]string{},
				Lines:      rep.Lines,
				WorkNS:     rep.Work.Nanoseconds(),
			}
			for _, a := range rep.Artifacts {
				jr.Artifacts[a.Name] = a.Item.CSV()
			}
			for _, t := range rep.Trials {
				jr.Trials = append(jr.Trials, jsonTrial{RunMeta: t.Meta, Values: t.Values, Labels: t.Labels})
			}
			jsonReports = append(jsonReports, jr)
		} else {
			fmt.Printf("──── %s ────\n", rep.Title)
			for i, a := range rep.Artifacts {
				if i > 0 {
					fmt.Println()
				}
				fmt.Print(a.Item.String())
			}
			for _, l := range rep.Lines {
				fmt.Print(l)
				if !strings.HasSuffix(l, "\n") {
					fmt.Println()
				}
			}
			if rep.Paper != "" {
				fmt.Println(rep.Paper)
			}
			if *verbose {
				fmt.Print(trace.MetaTable(rep.Experiment+" trials", rep.Metas()).String())
			}
			fmt.Printf("(%s: %d trials in %.1fs)\n\n", rep.Experiment, len(rep.Trials), rep.Work.Seconds())
		}

		for _, a := range rep.Artifacts {
			if err := emit(a.Name, a.Item); err != nil {
				fail(1, "benchsuite: %v\n", err)
			}
		}
		if *countersCSV {
			if err := emit(rep.Experiment+"-counters", trialCounters{rep}); err != nil {
				fail(1, "benchsuite: %v\n", err)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReports); err != nil {
			fail(1, "benchsuite: json: %v\n", err)
		}
	} else if len(reports) > 1 {
		fmt.Printf("(%d experiments in %.1fs wall)\n", len(reports), wall.Seconds())
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(1, "benchsuite: memprofile: %v\n", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(1, "benchsuite: memprofile: %v\n", err)
		}
		f.Close()
	}
}
