package exp

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"coregap/internal/guest"
	"coregap/internal/sim"
)

// poolingTestExperiments is the experiment set the pooled-vs-fresh
// equivalence test sweeps. Under -short only the cheap experiments run;
// the full set covers every workload kind the dispatcher knows,
// including the node-booting sweeps and the attack battery.
func poolingTestExperiments(t *testing.T) []string {
	t.Helper()
	if testing.Short() {
		// openloop rides in the short set deliberately: it is the one
		// experiment whose report includes per-window tails, so this is
		// where windowed-metrics determinism under pooling is enforced.
		// openloop-hi rides along for the same reason at a rate an order
		// of magnitude past service capacity: the batched arrival path
		// must stay deterministic in deep collapse.
		return []string{"table2", "table3", "fig3", "tdx", "openloop", "openloop-hi"}
	}
	return Names()
}

// TestPooledExecuteDeterminism is the acceptance test of context
// pooling: for every experiment, a pooled serial run and a pooled
// 8-worker run must reduce to byte-identical reports (artifact CSVs,
// headline lines, per-trial values and labels; Meta.Wall excluded) to
// the unpooled reference, every spec built from scratch by Execute and
// reduced. This is exactly the benchsuite `-exp all -seed 42`
// tree compared across `-parallel 1/8`.
func TestPooledExecuteDeterminism(t *testing.T) {
	p := Profile{Seed: 42}
	for _, name := range poolingTestExperiments(t) {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		pooled1, err := NewRunner(1).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s pooled serial: %v", name, err)
		}
		pooled8, err := NewRunner(8).RunExperiment(e, p)
		if err != nil {
			t.Fatalf("%s pooled parallel: %v", name, err)
		}
		want := renderReport(t, unpooledReport(t, e, p))
		if got := renderReport(t, pooled1); got != want {
			t.Errorf("%s: pooled serial differs from fresh\nfresh:\n%s\npooled:\n%s", name, want, got)
		}
		if got := renderReport(t, pooled8); got != want {
			t.Errorf("%s: pooled 8-worker differs from fresh\nfresh:\n%s\npooled:\n%s", name, want, got)
		}
	}
}

// unpooledReport is the reference a Runner must reproduce: every spec
// of e executed from scratch by Execute, in order, and folded by the
// Reduce.
func unpooledReport(t *testing.T, e *Experiment, p Profile) *Report {
	t.Helper()
	specs := e.Specs(p)
	trials := make([]Trial, len(specs))
	for i, spec := range specs {
		tr, err := Execute(spec)
		if err != nil {
			t.Fatalf("%s fresh %s: %v", e.Name, spec.ID, err)
		}
		trials[i] = tr
	}
	rep := e.Reduce(p, trials)
	finishReport(rep, e, trials)
	return rep
}

// TestPooledContextReuseOrderIndependence: a context that has already
// executed a large trial must produce byte-identical results for a
// small one (and vice versa) — Reset may not leak capacity-dependent
// behaviour, only capacity.
func TestPooledContextReuseOrderIndependence(t *testing.T) {
	small := ScenarioSpec{ID: "small", Config: ConfigGapped, Cores: 4, Seed: 7,
		Workload: Workload{Kind: WLIPIBench, Rounds: 64}}
	big := ScenarioSpec{ID: "big", Config: ConfigGapped, Cores: 8, Seed: 9,
		Workload: Workload{Kind: WLCoreMark, VMs: 2, VCPUs: 2, Work: 20 * sim.Millisecond}}

	ref := func(spec ScenarioSpec) Trial {
		tr, err := Execute(spec)
		if err != nil {
			t.Fatalf("fresh %s: %v", spec.ID, err)
		}
		return tr
	}
	wantSmall, wantBig := ref(small), ref(big)

	ctx := NewTrialContext()
	for i, spec := range []ScenarioSpec{big, small, big, small, small} {
		tr, err := ExecuteIn(ctx, spec)
		if err != nil {
			t.Fatalf("pooled run %d (%s): %v", i, spec.ID, err)
		}
		want := wantSmall
		if spec.ID == "big" {
			want = wantBig
		}
		if got, exp := trialValues(tr), trialValues(want); got != exp {
			t.Errorf("run %d (%s): pooled values diverge after reuse\nfresh:\n%s\npooled:\n%s",
				i, spec.ID, exp, got)
		}
	}
}

// bytesPerRun measures the mean bytes allocated per call of f, in the
// style of testing.AllocsPerRun: one warm-up call, a GC to settle the
// heap, then TotalAlloc deltas over runs calls.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	f()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestTrialAllocs gates the bytes a trial allocates, on both paths. A
// fresh Execute builds the whole substrate (engine, machine, µarch
// buffers and a granule table whose pages are allocated only where the
// trial delegates memory), ~0.2 MB for this spec; a steady-state pooled
// trial rebuilds only its per-trial object graph (kernel, monitor, VMs,
// event closures), ~66 KB. The ceilings, 1 MiB fresh and 128 KiB
// pooled, catch any per-trial structure sized by the machine rather
// than by what the trial touches. The allocation *count* must also drop
// under pooling — the substrate's construction allocations disappear —
// but the surviving graph is rebuilt by design, so that gate is
// directional.
func TestTrialAllocs(t *testing.T) {
	spec := ScenarioSpec{ID: "alloc-gate", Config: ConfigGapped, Cores: 4, Seed: 11,
		Workload: Workload{Kind: WLIPIBench, Rounds: 32}}

	ctx := NewTrialContext()
	// Warm the context: first use grows the heap, source map, granule
	// table and metric maps to their steady-state footprint.
	for i := 0; i < 3; i++ {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	pooledBytes := bytesPerRun(10, func() {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	freshBytes := bytesPerRun(10, func() {
		if _, err := Execute(spec); err != nil {
			t.Fatal(err)
		}
	})
	pooled := testing.AllocsPerRun(10, func() {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := Execute(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bytes/trial: fresh=%.0f pooled=%.0f; allocs/trial: fresh=%.0f pooled=%.0f",
		freshBytes, pooledBytes, fresh, pooled)
	if freshBytes > 1<<20 {
		t.Errorf("fresh trial allocates %.0f bytes; want <= 1 MiB", freshBytes)
	}
	if pooledBytes > 128<<10 {
		t.Errorf("pooled trial allocates %.0f bytes; want <= 128 KiB", pooledBytes)
	}
	if pooled >= fresh {
		t.Errorf("pooled trial allocation count %.0f did not drop below fresh %.0f", pooled, fresh)
	}
}

// TestFreshRunnerBypassesPooling: Metrics stays populated on the fresh
// path (cmd/coregapctl -v depends on it) and nil under pooling, where
// the set belongs to the worker context and is recycled by the next
// trial.
func TestFreshRunnerBypassesPooling(t *testing.T) {
	spec := ScenarioSpec{ID: "metrics", Config: ConfigGapped, Cores: 4, Seed: 3,
		Workload: Workload{Kind: WLIPIBench, Rounds: 16}}
	tr, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics == nil {
		t.Error("fresh Execute must populate Trial.Metrics")
	}
	tr, err = ExecuteIn(NewTrialContext(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Metrics != nil {
		t.Error("pooled ExecuteIn must leave Trial.Metrics nil (set is recycled)")
	}
}

// TestSteadyStateTrialAllocs extends the zero-allocation gates from the
// engine and the per-layer cycles to whole pooled legacy trials: once a
// worker's context is warm, a trial allocates its per-trial object
// graph (kernel, monitor, VMs, result maps) and nothing per simulated
// event. The gate runs each spec at N and 2N rounds of simulated length
// — twice the CoreMark work, twice the Redis measurement window, so
// roughly twice the exits, interrupts, IPIs, scheduler slices and
// device round trips — and requires the allocation count per trial not
// to grow with it at all. The simulation is deterministic, so the count
// is exact and the gate needs no tolerance.
func TestSteadyStateTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	coremark := func(cfg Config, scale int) ScenarioSpec {
		return ScenarioSpec{ID: "coremark", Config: cfg, Cores: 4, Seed: 5,
			Workload: Workload{Kind: WLCoreMark, VCPUs: 2, Work: sim.Duration(scale) * 200 * sim.Millisecond}}
	}
	redis := func(cfg Config, scale int) ScenarioSpec {
		return ScenarioSpec{ID: "redis", Config: cfg, Cores: 4, Seed: 5,
			Workload: Workload{Kind: WLRedis, Dev: guest.SRIOVNet, VCPUs: 2, Op: guest.OpGet,
				Clients: 8, Bytes: 512, Window: sim.Duration(scale) * 50 * sim.Millisecond}}
	}
	cases := []struct {
		name string
		spec func(scale int) ScenarioSpec
	}{
		{"coremark/shared", func(s int) ScenarioSpec { return coremark(ConfigBaseline, s) }},
		{"coremark/gapped", func(s int) ScenarioSpec { return coremark(ConfigGapped, s) }},
		{"coremark/gapped-nodeleg", func(s int) ScenarioSpec { return coremark(ConfigGappedNoDeleg, s) }},
		{"coremark/gapped-busywait", func(s int) ScenarioSpec { return coremark(ConfigGappedBusyWait, s) }},
		{"redis/shared", func(s int) ScenarioSpec { return redis(ConfigBaseline, s) }},
		{"redis/gapped", func(s int) ScenarioSpec { return redis(ConfigGapped, s) }},
	}
	for _, c := range cases {
		ctx := NewTrialContext()
		var events [3]uint64
		run := func(scale int) {
			tr, err := ExecuteIn(ctx, c.spec(scale))
			if err != nil {
				t.Fatalf("%s x%d: %v", c.name, scale, err)
			}
			events[scale] = tr.Meta.Events
		}
		// Warm the context at both lengths: heap arrays, free lists,
		// histogram pages and queue backing arrays reach the size the
		// longer run needs.
		for i := 0; i < 2; i++ {
			run(1)
			run(2)
		}
		short := testing.AllocsPerRun(3, func() { run(1) })
		long := testing.AllocsPerRun(3, func() { run(2) })
		t.Logf("%s: allocs/trial N=%.0f (%d events) 2N=%.0f (%d events)",
			c.name, short, events[1], long, events[2])
		if events[2] < events[1]+500 {
			t.Fatalf("%s: 2N trial fired %d events vs %d at N; the length scaling is broken", c.name, events[2], events[1])
		}
		if long > short {
			t.Errorf("%s: a trial twice as long allocates %.0f more times (%.0f vs %.0f); the per-event path must not allocate",
				c.name, long-short, long, short)
		}
	}
}

// TestTrialAllocsIgnoreGC is the deterministic form of what made
// TestSteadyStateTrialAllocs flaky: a trial whose path allocates through
// a cache the garbage collector empties (fmt's printer pool, any
// sync.Pool) makes more allocations right after a collection than
// without one, so an exact allocation count depended on where the
// collector happened to run. A warm pooled trial must make the same
// number of allocations with and without two forced collections before
// it. The runtime makes a few allocations of its own now and then (a
// collection cycle's sudog, say), which only ever add to a trial's
// count, so each side is the least of three trials, alternated; a cache
// the collector empties costs every trial after a collection, so the
// least of three still shows it. The automatic collector is paused
// meanwhile, so that only the forced collections run.
func TestTrialAllocsIgnoreGC(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	spec := ScenarioSpec{ID: "coremark", Config: ConfigGapped, Cores: 4, Seed: 5,
		Workload: Workload{Kind: WLCoreMark, VCPUs: 2, Work: 200 * sim.Millisecond}}
	ctx := NewTrialContext()
	run := func() {
		if _, err := ExecuteIn(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(gc bool) uint64 {
		if gc {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	run()
	run()
	plain, collected := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 3 {
		plain = min(plain, mallocs(false))
		collected = min(collected, mallocs(true))
	}
	if plain != collected {
		t.Errorf("coremark/gapped: a trial after two forced GCs makes %d allocations, without them %d", collected, plain)
	}
}

// TestPooledCounterNamesMatchFresh guards the pooled engine's counter
// bank against carrying counts from one trial into the next. Two pooled
// trials with different exit mixes run back to back on one context —
// Table 4's no-delegation config, whose ticks exit to the host, and the
// delegated config, whose ticks stay on the dedicated core — in both
// orders. The second trial's Counters must list exactly the counters,
// with exactly the values, a fresh Execute of the same spec reports: no
// counter only the first trial took may show up in it.
func TestPooledCounterNamesMatchFresh(t *testing.T) {
	cm := Workload{Kind: WLCoreMark, VCPUs: 3, Work: 100 * sim.Millisecond}
	nodeleg := ScenarioSpec{ID: "nodeleg", Config: ConfigGappedNoDeleg, Cores: 4, Seed: 9, Workload: cm}
	deleg := ScenarioSpec{ID: "deleg", Config: ConfigGapped, Cores: 4, Seed: 9, Workload: cm}
	for _, pair := range [][2]ScenarioSpec{{nodeleg, deleg}, {deleg, nodeleg}} {
		first, second := pair[0], pair[1]
		fresh, err := Execute(second)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Counters

		ctx := NewTrialContext()
		prev, err := ExecuteIn(ctx, first)
		if err != nil {
			t.Fatal(err)
		}
		onlyFirst := 0
		for name := range prev.Counters {
			if _, ok := want[name]; !ok {
				onlyFirst++
			}
		}
		if onlyFirst == 0 {
			t.Fatalf("%s then %s: the first trial took no counter the second lacks; the exit mixes must differ", first.ID, second.ID)
		}
		got, err := ExecuteIn(ctx, second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Counters, want) {
			t.Errorf("%s then %s: pooled counters differ from fresh\nfresh:  %v\npooled: %v", first.ID, second.ID, want, got.Counters)
		}
	}
}
