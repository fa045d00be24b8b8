package exp

import (
	"fmt"

	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/trace"
)

// This file declares the paper's tables (2–5) as spec generators plus
// pure reducers. The legacy Run* entry points are kept as thin wrappers
// that generate, execute on the default pool, and reduce.

// ---------------------------------------------------------------- Table 2

// Table2Result carries the three measured latencies alongside the table.
type Table2Result struct {
	Table    *trace.Table
	Async    sim.Duration // core-gapped asynchronous (vCPU run calls)
	Sync     sim.Duration // core-gapped synchronous (e.g. page-table update)
	SameCore sim.Duration // same-core synchronous (EL3 component, lower bound)
}

func table2Specs(seed uint64) []ScenarioSpec {
	const rounds = 1000
	return []ScenarioSpec{
		{ID: "async", Config: ConfigGapped, Cores: 2, Seed: seed,
			Workload: Workload{Kind: WLNullRMMAsync, Rounds: rounds}},
		{ID: "sync", Config: ConfigGapped, Cores: 2, Seed: seed + 1,
			Workload: Workload{Kind: WLNullRMMSync, Rounds: rounds}},
		{ID: "samecore", Config: ConfigGapped, Cores: 1, Seed: seed,
			Workload: Workload{Kind: WLNullRMMSameCore}},
	}
}

func reduceTable2(trials []Trial) Table2Result {
	var res Table2Result
	for _, t := range trials {
		switch t.Spec.ID {
		case "async":
			res.Async = t.Dur("ns")
		case "sync":
			res.Sync = t.Dur("ns")
		case "samecore":
			res.SameCore = t.Dur("ns")
		}
	}
	tb := trace.NewTable("Table 2", "Comparison of null RMM call latencies", "Latency")
	tb.AddRow("Core-gapped asynchronous (vCPU run calls)", fmt.Sprintf("%.1f ns", float64(res.Async)))
	tb.AddRow("Core-gapped synchronous (e.g., page table update)", fmt.Sprintf("%.1f ns", float64(res.Sync)))
	tb.AddRow("Same-core synchronous", fmt.Sprintf(">%.1f us", float64(res.SameCore)/1000))
	res.Table = tb
	return res
}

// RunTable2 measures null RMM call latencies (Table 2) by driving the
// actual transport machinery; see the WLNullRMM* interpreters.
func RunTable2(seed uint64) Table2Result {
	return reduceTable2(run(table2Specs(seed)))
}

// ---------------------------------------------------------------- Table 3

// Table3Result carries the three measured vIPI latencies.
type Table3Result struct {
	Table      *trace.Table
	NoDeleg    sim.Duration
	Delegated  sim.Duration
	SharedCore sim.Duration
}

func table3Specs(seed uint64) []ScenarioSpec {
	ipi := Workload{Kind: WLIPIBench, Rounds: 300}
	return []ScenarioSpec{
		{ID: "nodeleg", Config: ConfigGappedNoDeleg, Cores: 4, Seed: seed, Workload: ipi},
		{ID: "deleg", Config: ConfigGapped, Cores: 4, Seed: seed, Workload: ipi},
		{ID: "shared", Config: ConfigBaseline, Cores: 4, Seed: seed, Workload: ipi},
	}
}

func reduceTable3(trials []Trial) Table3Result {
	var res Table3Result
	for _, t := range trials {
		switch t.Spec.ID {
		case "nodeleg":
			res.NoDeleg = t.Dur("vipi.mean.ns")
		case "deleg":
			res.Delegated = t.Dur("vipi.mean.ns")
		case "shared":
			res.SharedCore = t.Dur("vipi.mean.ns")
		}
	}
	tb := trace.NewTable("Table 3", "Virtual interprocessor interrupt latency", "IPI latency")
	tb.AddRow("Core-gapped CVM, without delegation", fmt.Sprintf("%.1f us", res.NoDeleg.Micros()))
	tb.AddRow("Core-gapped CVM, with delegation", fmt.Sprintf("%.2f us", res.Delegated.Micros()))
	tb.AddRow("Shared-core VM", fmt.Sprintf("%.2f us", res.SharedCore.Micros()))
	res.Table = tb
	return res
}

// RunTable3 measures virtual inter-processor interrupt latency (Table 3)
// using the two-vCPU IPI ping-pong workload under the three
// configurations the paper compares.
func RunTable3(seed uint64) Table3Result {
	return reduceTable3(run(table3Specs(seed)))
}

// ---------------------------------------------------------------- Table 4

// Table4Result carries the exit counts.
type Table4Result struct {
	Table *trace.Table
	// [0] = without delegation, [1] = with delegation.
	InterruptExits [2]uint64
	TotalExits     [2]uint64
}

// table4Specs reproduces the Table 4 setup: CoreMark-PRO on a 16-core
// machine (15 core-gapped vCPUs + 1 host core, per §5.1's
// equal-physical-cores accounting), with and without delegation. The
// paper's run length corresponds to ≈4.5 s of guest execution at the
// 250 Hz tick.
func table4Specs(seed uint64) []ScenarioSpec {
	cm := Workload{Kind: WLCoreMark, VCPUs: 15, Work: 4410 * sim.Millisecond}
	return []ScenarioSpec{
		{ID: "nodeleg", Config: ConfigGappedNoDeleg, Cores: 16, Seed: seed,
			Workload: cm, Horizon: 60 * sim.Second},
		{ID: "deleg", Config: ConfigGapped, Cores: 16, Seed: seed,
			Workload: cm, Horizon: 60 * sim.Second},
	}
}

func reduceTable4(trials []Trial) Table4Result {
	var res Table4Result
	for _, t := range trials {
		i := 0
		if t.Spec.ID == "deleg" {
			i = 1
		}
		res.InterruptExits[i] = uint64(t.V("exits.interrupt"))
		res.TotalExits[i] = uint64(t.V("exits.total"))
	}
	tb := trace.NewTable("Table 4", "Interrupt delegation effect on CoreMark-PRO",
		"Without delegation", "With delegation")
	tb.AddRow("Interrupt-related exits",
		fmt.Sprintf("%d", res.InterruptExits[0]), fmt.Sprintf("%d", res.InterruptExits[1]))
	tb.AddRow("Total exits",
		fmt.Sprintf("%d", res.TotalExits[0]), fmt.Sprintf("%d", res.TotalExits[1]))
	res.Table = tb
	return res
}

// RunTable4 reproduces the interrupt-delegation exit accounting (Table 4).
func RunTable4(seed uint64) Table4Result {
	return reduceTable4(run(table4Specs(seed)))
}

// ---------------------------------------------------------------- Table 5

// Table5Row is one Redis measurement.
type Table5Row struct {
	Op         guest.RedisOp
	Mode       string
	Throughput float64      // krequests/s
	Mean       sim.Duration // client-observed latency
	P95        sim.Duration
	P99        sim.Duration
}

// Table5Result carries all rows plus the rendered table.
type Table5Result struct {
	Table *trace.Table
	Rows  []Table5Row
}

// table5Specs reproduces the Redis benchmark setup (Table 5): 50
// closed-loop clients, 512-byte objects, SR-IOV networking, on a 16-core
// machine (16 vCPUs shared-core, 15 vCPUs core-gapped; Redis itself is
// single-threaded, so the extra vCPUs idle as on the real system).
func table5Specs(window sim.Duration, seed uint64) []ScenarioSpec {
	if window <= 0 {
		window = 1 * sim.Second
	}
	redis := func(op guest.RedisOp, vcpus int) Workload {
		return Workload{Kind: WLRedis, Dev: guest.SRIOVNet, VCPUs: vcpus,
			Op: op, Clients: 50, Bytes: 512, Window: window}
	}
	var specs []ScenarioSpec
	for _, op := range []guest.RedisOp{guest.OpSet, guest.OpGet, guest.OpLRange100} {
		specs = append(specs,
			ScenarioSpec{ID: op.String() + "/shared", Config: ConfigBaseline,
				Cores: 16, Seed: seed, Workload: redis(op, 16)},
			ScenarioSpec{ID: op.String() + "/gapped", Config: ConfigGapped,
				Cores: 16, Seed: seed, Workload: redis(op, 15)})
	}
	return specs
}

func reduceTable5(trials []Trial) Table5Result {
	var res Table5Result
	for _, t := range trials {
		mode := "shared core"
		if t.Spec.Config == ConfigGapped {
			mode = "core gapped"
		}
		res.Rows = append(res.Rows, Table5Row{
			Op:         t.Spec.Workload.Op,
			Mode:       mode,
			Throughput: t.V("krps"),
			Mean:       t.Dur("lat.mean.ns"),
			P95:        t.Dur("lat.p95.ns"),
			P99:        t.Dur("lat.p99.ns"),
		})
	}
	tb := trace.NewTable("Table 5", "Redis benchmark: 50 clients, 512-byte objects",
		"Throughput (krps)", "Mean (ms)", "p95 (ms)", "p99 (ms)")
	for _, r := range res.Rows {
		tb.AddRow(fmt.Sprintf("%s %s", r.Op, r.Mode),
			fmt.Sprintf("%.1f", r.Throughput),
			fmt.Sprintf("%.2f", r.Mean.Seconds()*1000),
			fmt.Sprintf("%.2f", r.P95.Seconds()*1000),
			fmt.Sprintf("%.2f", r.P99.Seconds()*1000))
	}
	res.Table = tb
	return res
}

// RunTable5 reproduces the Redis benchmark (Table 5) over the given
// steady-state measurement window.
func RunTable5(window sim.Duration, seed uint64) Table5Result {
	return reduceTable5(run(table5Specs(window, seed)))
}

// The table experiments, registered in paper order by register.go.
var (
	expTable2 = &Experiment{
		Name:  "table2",
		Desc:  "Measures the three null RMM call paths: the asynchronous cross-core run call (mailbox post, IPI, wake-up thread), the synchronous busy-wait call, and the modelled same-core EL3 lower bound (world switches plus mitigation flushes).",
		Title: "Table 2: null RMM call latencies",
		Paper: "paper: async 2757.6 ns | sync 257.7 ns | same-core >12.8 us",
		Specs: func(p Profile) []ScenarioSpec { return table2Specs(p.Seed) },
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceTable2(trials)
			return &Report{Artifacts: []Artifact{{Name: "table2", Item: r.Table}}}
		},
	}

	expTable3 = &Experiment{
		Name:  "table3",
		Desc:  "Times virtual IPI delivery with a two-vCPU ping-pong guest under no-delegation, delegated, and shared-core configurations.",
		Title: "Table 3: virtual IPI latency",
		Paper: "paper: no-delegation 43.9 us | delegated 2.22 us | shared-core 3.85 us",
		Specs: func(p Profile) []ScenarioSpec { return table3Specs(p.Seed) },
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceTable3(trials)
			return &Report{Artifacts: []Artifact{{Name: "table3", Item: r.Table}}}
		},
	}

	expTable4 = &Experiment{
		Name:  "table4",
		Desc:  "Counts host-visible VM exits of a CoreMark-PRO run with and without interrupt delegation, split into interrupt-related and total.",
		Title: "Table 4: interrupt delegation effect on CoreMark-PRO exits",
		Paper: "paper: interrupt-related 33954±161 → 390±3 | total 37712±504 → 1324±60",
		Specs: func(p Profile) []ScenarioSpec { return table4Specs(p.Seed) },
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceTable4(trials)
			return &Report{Artifacts: []Artifact{{Name: "table4", Item: r.Table}}}
		},
	}

	expTable5 = &Experiment{
		Name:  "table5",
		Desc:  "Runs closed-loop Redis (50 clients, 512-byte objects) over SET/GET/LRANGE and compares throughput and latency percentiles across configurations.",
		Title: "Table 5: Redis benchmark (50 clients, 512-byte objects)",
		Paper: "paper krps: SET 51.7→56.2 | GET 48.8→55.3 | LRANGE 11.6→14.5 (shared→gapped)",
		Specs: func(p Profile) []ScenarioSpec {
			window := 500 * sim.Millisecond
			if p.Full {
				window = 2 * sim.Second
			}
			return table5Specs(window, p.Seed)
		},
		Reduce: func(p Profile, trials []Trial) *Report {
			r := reduceTable5(trials)
			return &Report{Artifacts: []Artifact{{Name: "table5", Item: r.Table}}}
		},
	}
)
