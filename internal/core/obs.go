package core

import "coregap/internal/sim"

// Engine-level counters for the node orchestration edges. These are
// machine-wide (every VM on the node bumps the same counter), beside
// the per-VM <vm>.* counters of vm.go in the same bank; together they
// give the perf-counter view of a trial: how many REC entries, exits,
// injections and delegated fast-path events the scenario generated.
var (
	cRECEnter   = sim.DefineCounter("core.rec_enters")
	cVCPUExit   = sim.DefineCounter("core.vcpu_exits")
	cInjections = sim.DefineCounter("core.irq_injections")
	cVIPIDeleg  = sim.DefineCounter("core.vipi_delegated")
	cTickDeleg  = sim.DefineCounter("core.ticks_delegated")
	cHostKick   = sim.DefineCounter("core.host_kicks")
)

// exitTraceNames gives each ExitReason a static trace label: the exit
// path must not format strings.
var exitTraceNames = [...]string{
	ExitTimer:   "exit.timer",
	ExitVIPI:    "exit.vipi",
	ExitMgmtIRQ: "exit.mgmt-irq",
	ExitMMIO:    "exit.mmio",
	ExitMisc:    "exit.misc",
	ExitKick:    "exit.kick",
	ExitHalt:    "exit.halt",
}

func exitTraceName(r ExitReason) string {
	if r >= 0 && int(r) < len(exitTraceNames) {
		return exitTraceNames[r]
	}
	return "exit.unknown"
}
