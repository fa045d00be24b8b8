package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"coregap/internal/exp"
)

// readyLine is the first line a child prints, once it is set up.
const readyLine = "ready"

// childReport is what a measuring child prints as its last stdout line.
type childReport struct {
	ColdS float64   `json:"cold_s"`
	PassS []float64 `json:"pass_s"` // warm passes without profiling
	// TrialMinMS is each trial's fastest Meta.Wall over those passes, in
	// spec order.
	TrialMinMS []float64 `json:"trial_min_ms"`
	AllocMiB   []float64 `json:"alloc_mib"`
	Digests    []string  `json:"digests"` // every pass, cold first
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"` // trials that returned an error
	// PeakRSS is each of those passes' resident-set high-water mark.
	PeakRSS []float64 `json:"peak_rss_mib"`
	// ProbeS is the fastest speed probe; one runs before each
	// unprofiled pass.
	ProbeS float64 `json:"probe_s"`

	// Traced runs only: profiled warm passes, their CPU profiles, and the
	// per-layer numbers the child can compute itself.
	TracedS  []float64          `json:"traced_s,omitempty"`
	Profiles []string           `json:"profiles,omitempty"`
	Layer    map[string]float64 `json:"layer,omitempty"`
}

func (r *childReport) note(j *job, p *pass) {
	r.Attempted += j.trials
	r.Failed += p.failed
	r.Digests = append(r.Digests, p.digest)
}

// runChild is one benchmark process: it sets up, prints readyLine, and
// unless setupOnly runs a cold pass and then passes warm ones. A traced
// child follows each warm pass with a profiled one and then runs the
// microbenchmarks.
func runChild(w workload, seed uint64, passes int, setupOnly, traced bool, stdout io.Writer) error {
	// One CPU: the runner uses one worker, and garbage collection then
	// lands in the pass time the same way on a host of any size, as on
	// the repository's 1-CPU CI host.
	runtime.GOMAXPROCS(1)
	j, err := newJob(w, seed, batterySeeds)
	if err != nil {
		return err
	}
	exp.NewTrialContext()
	fmt.Fprintln(stdout, readyLine)
	if setupOnly {
		return nil
	}

	var rep childReport
	spans := spanLog{epoch: time.Now()}
	hostLayer := map[string][]float64{}
	probe := speedProbe()
	cold := j.run(false)
	rep.note(j, cold)
	rep.ColdS = cold.wall().Seconds()
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for i := 0; i < passes; i++ {
		probe = min(probe, speedProbe())
		if err := resetPeakRSS(); err != nil {
			return err
		}
		p := j.run(false)
		rss, err := peakRSS()
		if err != nil {
			return err
		}
		rep.note(j, p)
		rep.PassS = append(rep.PassS, p.wall().Seconds())
		rep.AllocMiB = append(rep.AllocMiB, float64(p.allocBytes)/(1<<20))
		rep.PeakRSS = append(rep.PeakRSS, rss)
		for k, t := range p.trials {
			if i == 0 {
				rep.TrialMinMS = append(rep.TrialMinMS, ms(t.Meta.Wall))
			} else if k < len(rep.TrialMinMS) {
				rep.TrialMinMS[k] = min(rep.TrialMinMS[k], ms(t.Meta.Wall))
			}
		}
		if !traced {
			continue
		}
		counts, host := layerCounts(p)
		if i == 0 {
			rep.Layer = counts
		}
		for k, v := range host {
			hostLayer[k] = append(hostLayer[k], v)
		}
		path := filepath.Join(outDir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, i))
		tp, err := profiledRun(j, path)
		if err != nil {
			return err
		}
		rep.note(j, tp)
		rep.TracedS = append(rep.TracedS, tp.wall().Seconds())
		rep.Profiles = append(rep.Profiles, path)
		spans.addPass(tp, fmt.Sprintf("%s seed %d warm pass %d", w.name, seed, i))
	}
	if traced {
		for k, vs := range hostLayer {
			rep.Layer[k] = median(vs)
		}
		for k, v := range runMicro(seed) {
			rep.Layer[k] = v
		}
		if err := spans.write(filepath.Join(outDir, "spans-"+w.name+".json")); err != nil {
			return err
		}
	}
	rep.ProbeS = probe.Seconds()
	return json.NewEncoder(stdout).Encode(rep)
}

// profiledRun runs one pass with the CPU profiler writing to path.
func profiledRun(j *job, path string) (*pass, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p := j.run(true)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// layerCounts sums a pass's simulated work per layer (exact: identical
// for every pass of one code and seed) and reports its host-time layer
// numbers separately.
func layerCounts(p *pass) (counts, host map[string]float64) {
	counts = map[string]float64{"exp.trials": float64(len(p.trials))}
	var events uint64
	var simulated int64
	var wall time.Duration
	for _, t := range p.trials {
		events += t.Meta.Events
		simulated += int64(t.Meta.Simulated)
		wall += t.Meta.Wall
		for _, c := range engineCounters {
			counts[c] += float64(t.Counters[c])
		}
	}
	counts["sim.events"] = float64(events)
	counts["sim.sim_s"] = float64(simulated) / 1e9
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = float64(wall.Nanoseconds()) / float64(events)
	}
	host = map[string]float64{
		"sim.ns_per_event":      nsPerEvent,
		"exp.overhead_ms":       ms(p.runEnd.Sub(p.start) - wall),
		"trace.render_ms":       ms(p.render()),
		"runtime.gc_cycles":     float64(p.gcCycles),
		"runtime.alloc_objects": float64(p.allocObjects),
	}
	return counts, host
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS lowers the process's resident-set high-water mark to its
// current resident set, so the next peakRSS reads the peak since now.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's resident-set high-water mark in MiB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
