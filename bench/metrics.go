package main

// metric is one named number the benchmark reports. BENCHMARK.json lists
// the same names, units and directions (TestBenchmarkJSONMatches).
type metric struct {
	name, unit, better string
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// exact marks a per-layer count of simulated work: a pure function of
	// code and seed, so two runs of the same code must agree exactly.
	exact bool
}

// endToEnd are host-time and host-memory numbers a user of the simulator
// sees, reported by an untraced run.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cold_pass_s", unit: "s", better: "lower", bound: 0.25},
	{name: "pass_s", unit: "s", better: "lower", bound: 0.25},
	{name: "trial_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "trial_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_pass", unit: "MiB", better: "lower", bound: 0.10},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// engineCounters are the sim.DefineCounter banks summed over a pass.
var engineCounters = []string{
	"uarch.llc_fills", "uarch.llc_evictions", "uarch.flushes",
	"hw.world_switches", "hw.ipis", "hw.irqs",
	"core.vcpu_exits", "core.irq_injections", "core.rec_enters", "core.vipi_delegated",
	"gic.spi_triggers",
	"host.submits", "host.ctx_switches", "host.irq_steals",
	"rmm.smc_calls", "granule.delegates", "rpc.posts",
	"snapshot.fork", "snapshot.hit",
}

// cpuLayers are the buckets the traced run charges profile samples to:
// the simulator's modules, "other" for any module not listed, "bench"
// for this benchmark, and noFrameMetric for samples with neither.
var cpuLayers = []string{
	"sim", "sim.rng", "uarch", "hw", "core", "gic", "host", "rmm", "granule",
	"rpc", "vmm", "guest", "trace", "attack", "exp", "other", "bench",
}

// noFrameMetric takes the samples with no simulator or benchmark frame:
// garbage collection and other runtime background work.
const noFrameMetric = "runtime.gc_cpu_pct"

// microNames are the microbenchmarks; each reports <name>_ns and
// <name>_allocs per operation.
var microNames = []string{
	"uarch.touch", "uarch.residue", "sim.after_step", "trace.lat", "rpc.roundtrip", "granule.delegate",
}

// perLayer are the traced run's numbers, one layer at a time.
var perLayer = func() []metric {
	ms := []metric{
		{name: "sim.events", unit: "count", better: "lower", exact: true},
		{name: "sim.sim_s", unit: "s", better: "lower", exact: true},
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "exp.trials", unit: "count", better: "lower", exact: true},
		{name: "exp.overhead_ms", unit: "ms", better: "lower"},
		{name: "trace.render_ms", unit: "ms", better: "lower"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "runtime.alloc_objects", unit: "count", better: "lower"},
		{name: "runtime.malloc_cpu_pct", unit: "%", better: "lower"},
		{name: noFrameMetric, unit: "%", better: "lower"},
		{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
	}
	for _, c := range engineCounters {
		better := "lower"
		if c == "snapshot.fork" || c == "snapshot.hit" {
			better = "higher"
		}
		ms = append(ms, metric{name: c, unit: "count", better: better, exact: true})
	}
	for _, l := range cpuLayers {
		ms = append(ms, metric{name: l + ".cpu_pct", unit: "%", better: "lower"})
	}
	for _, p := range microNames {
		ms = append(ms,
			metric{name: p + "_ns", unit: "ns", better: "lower"},
			metric{name: p + "_allocs", unit: "count", better: "lower"})
	}
	return ms
}()
