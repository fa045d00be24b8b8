package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

const (
	// outDir receives the run records, CPU profiles and spans; paths are
	// relative to the repository root, where the benchmark runs.
	outDir      = "bench/out"
	digestsPath = "bench/testdata/digests.txt"
	// digestSeed is the seed the committed digests were taken at.
	digestSeed = 42
	// defaultSeconds is the run length BENCHMARK.json sets.
	defaultSeconds = 10
	// children is how many measuring processes an untraced run starts,
	// and setupLaunches how many launches set-up time is the median of.
	children      = 3
	setupLaunches = 21
)

//go:embed testdata/digests.txt
var digestsTxt string

// committedDigests maps each workload to its artifact digest at
// digestSeed.
func committedDigests() map[string]string {
	m := map[string]string{}
	for _, line := range strings.Split(digestsTxt, "\n") {
		if name, sum, ok := strings.Cut(strings.TrimSpace(line), " "); ok {
			m[name] = sum
		}
	}
	return m
}

// config is one benchmark invocation.
type config struct {
	w       workload
	seed    uint64
	seconds int
	trace   bool
	smoke   bool // one child, one warm pass, no run record
}

// passesPerChild is how many warm passes each measuring child runs: as
// many as fit the run length at the workload's nominal pass time. A
// traced child runs each twice, once profiled.
func (c config) passesPerChild() int {
	if c.smoke {
		return 1
	}
	per := time.Duration(c.seconds) * time.Second / children
	if c.trace {
		per = time.Duration(c.seconds) * time.Second / 2
	}
	return max(1, int(per/c.w.nominal))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as appended to outDir/runs.jsonl, the input of
// -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Digest   string `json:"digest"`
	Result   result `json:"result"`
}

// benchmark runs one invocation: untraced, it launches setupLaunches
// processes, every (setupLaunches/children)th of which measures; traced,
// one child that also profiles. Each metric is printed on its own line
// with its unit, and the result is printed last.
func benchmark(ctx context.Context, c config, stdout io.Writer) (result, error) {
	k := c.passesPerChild()
	launches, measuring := setupLaunches, children
	if c.smoke || c.trace {
		launches, measuring = 1, 1
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d measuring process(es) x (1 cold + %d warm passes)\n", c.w.name, c.seed, measuring, k)
	var ready []float64
	var reps []*childReport
	for i := 0; i < launches; i++ {
		// Set-up-only launches run in groups before each measuring one,
		// so the set-up samples spread over the whole run.
		setupOnly := (i+1)%(launches/measuring) != 0
		args := []string{"-child", "-workload", c.w.name, "-seed", strconv.FormatUint(c.seed, 10),
			"-passes", strconv.Itoa(k), "-setup-only=" + strconv.FormatBool(setupOnly), "-trace", strconv.Itoa(btoi(c.trace))}
		d, rep, err := launch(ctx, args, setupOnly)
		if err != nil {
			return result{}, err
		}
		ready = append(ready, d.Seconds())
		if rep != nil {
			reps = append(reps, rep)
		}
	}

	res := result{Metrics: map[string]metricValue{}}
	ref := committedDigests()[c.w.name]
	if c.seed != digestSeed || ref == "" {
		ref = reps[0].Digests[0]
	}
	mismatches := 0
	for _, r := range reps {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for _, d := range r.Digests {
			if d != ref {
				mismatches++
			}
		}
	}
	res.Failed += mismatches
	res.Correct = res.Failed == 0

	var values map[string]float64
	defs := endToEnd
	if c.trace {
		var err error
		if values, err = layerValues(ctx, reps[0]); err != nil {
			return result{}, err
		}
		defs = perLayer
	} else {
		values = endToEndValues(stdout, ready, reps)
	}
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(stdout, "  %-28s %14.6g (%d failed of %d trials; %d digest mismatches)\n",
		"failed_frac", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, mismatches)

	if !c.smoke {
		rec := record{Workload: c.w.name, Seed: c.seed, Seconds: c.seconds, Trace: btoi(c.trace), Digest: reps[0].Digests[0], Result: res}
		if err := appendRecord(rec); err != nil {
			return result{}, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// endToEndValues reduces the children's reports to the end-to-end
// metrics. Each pass and trial time is the fastest of its repetitions,
// at the reference host's speed (see speed.go): the work is
// deterministic, and other tenants of the host only ever add time, so
// the fastest repetition is the steadiest estimate of its cost. The raw
// median, quartiles and count of each are printed alongside.
func endToEndValues(stdout io.Writer, ready []float64, reps []*childReport) map[string]float64 {
	var cold, passes, alloc, rss []float64
	trials := slices.Clone(reps[0].TrialMinMS)
	probe := reps[0].ProbeS
	for _, r := range reps {
		cold = append(cold, r.ColdS)
		passes = append(passes, r.PassS...)
		alloc = append(alloc, r.AllocMiB...)
		rss = append(rss, r.PeakRSS...)
		probe = min(probe, r.ProbeS)
		for k := range trials {
			if k < len(r.TrialMinMS) {
				trials[k] = min(trials[k], r.TrialMinMS[k])
			}
		}
	}
	scale := referenceProbe.Seconds() / probe
	tail := tailPercentile(len(trials))
	detail := func(name string, xs []float64, what string) {
		q1, q3 := quartiles(xs)
		fmt.Fprintf(stdout, "  %-28s median %.6g q1 %.6g q3 %.6g n=%d %s\n", name, median(xs), q1, q3, len(xs), what)
	}
	detail("setup_s", ready, "launches")
	detail("cold_pass_s (raw)", cold, "processes")
	detail("pass_s (raw)", passes, "warm passes")
	detail("trial_ms (raw)", trials, fmt.Sprintf("trials at their fastest; tail is p%g", tail))
	fmt.Fprintf(stdout, "  %-28s %.6g s fastest, %.6g s on the reference host: times scale by %.4f\n", "speed probe", probe, referenceProbe.Seconds(), scale)
	return map[string]float64{
		"setup_s":           median(ready),
		"cold_pass_s":       scale * slices.Min(cold),
		"pass_s":            scale * slices.Min(passes),
		"trial_p50_ms":      scale * percentile(trials, 50),
		"trial_tail_ms":     scale * percentile(trials, tail),
		"alloc_mb_per_pass": median(alloc),
		"peak_rss_mb":       median(rss),
	}
}

// layerValues completes a traced child's per-layer numbers with the
// profile attribution and the tracing overhead.
func layerValues(ctx context.Context, r *childReport) (map[string]float64, error) {
	shares, err := profileShares(ctx, r.Profiles)
	if err != nil {
		return nil, err
	}
	values := r.Layer
	for k, v := range shares {
		values[k] = v
	}
	values["bench.trace_overhead_pct"] = 100 * (slices.Min(r.TracedS)/slices.Min(r.PassS) - 1)
	return values, nil
}

// launch starts this executable as a child with args and waits for it.
// It returns the time from start to the child's readyLine and, unless the
// child only sets up, its report.
func launch(ctx context.Context, args []string, setupOnly bool) (time.Duration, *childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	// A read error leaves a line or report that fails the checks below,
	// or a child that Wait reports.
	br := bufio.NewReader(stdout)
	first, _ := br.ReadString('\n')
	ready := time.Since(start)
	rest, _ := io.ReadAll(br)
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("child %v: %w", args, err)
	}
	if strings.TrimSpace(first) != readyLine {
		return 0, nil, fmt.Errorf("child %v: first line %q, want %q", args, first, readyLine)
	}
	if setupOnly {
		return ready, nil, nil
	}
	var rep childReport
	if err := json.Unmarshal(bytes.TrimSpace(rest), &rep); err != nil {
		return 0, nil, fmt.Errorf("child %v: report: %w", args, err)
	}
	return ready, &rep, nil
}

func appendRecord(rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateDigests runs every workload once at digestSeed, in this process,
// and rewrites the committed digest file.
func updateDigests(stdout io.Writer) error {
	var b strings.Builder
	for _, w := range workloads {
		j, err := newJob(w, digestSeed, batterySeeds)
		if err != nil {
			return err
		}
		p := j.run(false)
		if p.failed > 0 {
			return fmt.Errorf("%s: %d trials failed", w.name, p.failed)
		}
		fmt.Fprintf(&b, "%s %s\n", w.name, p.digest)
		fmt.Fprintf(stdout, "%s %s\n", w.name, p.digest)
	}
	return os.WriteFile(digestsPath, []byte(b.String()), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
