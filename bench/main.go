// Command bench is the simulator's host-time benchmark. It runs one
// workload (a fixed set of experiment specs, generated from the seed)
// through the exp runner in fresh child processes, checks the artifacts
// against committed digests, and prints every metric with its unit,
// ending with one JSON result line. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh -smoke --workload W --trace 0|1
//	bash bench/run.sh -compare A.jsonl B.jsonl
//	bash bench/run.sh -update
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// deadline bounds one invocation, children included.
const deadline = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", workloads[0].name, "workload to run")
	seed := fs.Uint64("seed", digestSeed, "seed the workload's specs derive from")
	seconds := fs.Int("seconds", defaultSeconds, "run length; sets how many passes each process runs")
	traceFlag := fs.Int("trace", 0, "1: a traced run reporting the per-layer metrics")
	smoke := fs.Bool("smoke", false, "one process and one warm pass")
	compareFlag := fs.Bool("compare", false, "compare the run records in two files: -compare A.jsonl B.jsonl")
	update := fs.Bool("update", false, "rewrite "+digestsPath+" from one pass of each workload at seed 42")
	child := fs.Bool("child", false, "run as a measuring process (started by the benchmark itself)")
	passes := fs.Int("passes", 1, "with -child: warm passes")
	setupOnly := fs.Bool("setup-only", false, "with -child: exit once set up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	switch {
	case *compareFlag:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two record files"))
		}
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *update:
		if err := updateDigests(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(fmt.Errorf("-trace takes 0 or 1, not %d", *traceFlag))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	w, err := lookupWorkload(*workloadName)
	if err != nil {
		return fail(err)
	}
	if *child {
		if err := runChild(w, *seed, *passes, *setupOnly, *traceFlag == 1, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	// An interrupt or the deadline kills the running child; the benchmark
	// then returns its error once the child has exited.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	c := config{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke}
	res, err := benchmark(ctx, c, stdout)
	if err != nil {
		return fail(err)
	}
	if !res.Correct {
		return fail(fmt.Errorf("%d of %d trials failed their checks", res.Failed, res.Attempted))
	}
	return 0
}
