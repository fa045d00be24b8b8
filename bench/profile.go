package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"slices"
	"strings"
	"time"
)

// sample is one distinct call stack of a CPU profile with the time
// charged to it, leaf frame first.
type sample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads the text `go tool pprof -traces` prints: a header,
// then one block per distinct stack, each opened by a dashed separator
// line; a block's first line carries the sample value before the leaf
// frame.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			out = append(out, sample{})
			continue
		}
		fields := strings.Fields(line)
		if !inBlock || len(fields) == 0 {
			continue
		}
		cur := &out[len(out)-1]
		if cur.frames == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			cur.value = d
			fields = fields[1:]
		}
		if len(fields) > 0 {
			cur.frames = append(cur.frames, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) > 0 && out[len(out)-1].frames == nil {
		out = out[:len(out)-1] // the closing separator opens no block
	}
	return out, nil
}

// rngFuncs are the sim package's random-number internals besides the
// Source methods: xoshiro stepping and the GF(2) jump matrices.
var rngFuncs = map[string]bool{
	"matVec": true, "matMul": true, "jumpMatrix": true, "xoPower": true,
	"xoStepState": true, "splitmix64": true, "rotl": true, "NewSource": true,
}

// frameLayer maps a profile frame to the layer it belongs to; ok is
// false for runtime and standard-library frames.
func frameLayer(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, found := strings.CutPrefix(fn, "coregap/internal/")
	if !found {
		return "", false
	}
	pkg, sym, _ := strings.Cut(rest, ".")
	if pkg == "sim" && (strings.HasPrefix(sym, "(*Source).") || rngFuncs[sym]) {
		return "sim.rng", true
	}
	if slices.Contains(cpuLayers, pkg) {
		return pkg, true
	}
	return "other", true
}

// attribute charges each sample to its leaf-most simulator or benchmark
// frame, so runtime and standard-library work lands on the layer that
// called it, and samples with neither go to noFrameMetric. It returns
// every layer's share of the total in percent (the shares sum to 100)
// plus runtime.malloc_cpu_pct, the overlapping share of samples that
// were inside the allocator.
func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{noFrameMetric: 0, "runtime.malloc_cpu_pct": 0}
	for _, l := range cpuLayers {
		out[l+".cpu_pct"] = 0
	}
	var total time.Duration
	for _, s := range samples {
		total += s.value
		name := noFrameMetric
		for _, f := range s.frames {
			if l, ok := frameLayer(f); ok {
				name = l + ".cpu_pct"
				break
			}
		}
		out[name] += float64(s.value)
		if slices.Contains(s.frames, "runtime.mallocgc") {
			out["runtime.malloc_cpu_pct"] += float64(s.value)
		}
	}
	if total == 0 {
		return out
	}
	for k, v := range out {
		out[k] = 100 * v / float64(total)
	}
	return out
}

// profileShares merges the given CPU profiles with `go tool pprof
// -traces` and attributes them by layer.
func profileShares(ctx context.Context, files []string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	samples, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("go tool pprof: the profiles hold no samples")
	}
	return attribute(samples), nil
}
