package core

import (
	"fmt"

	"coregap/internal/granule"
	"coregap/internal/host"
	"coregap/internal/hw"
	"coregap/internal/planner"
	"coregap/internal/rmm"
	"coregap/internal/sim"
	"coregap/internal/smc"
	"coregap/internal/trace"
)

// Mode selects how guests execute on a node.
type Mode int

// Execution modes.
const (
	// SharedCore is the paper's baseline: a traditional non-confidential
	// VM whose vCPU threads time-share the host's cores under KVM, with
	// exits handled on the same core (§5.1).
	SharedCore Mode = iota
	// Gapped is core-gapped confidential VMs: dedicated cores, cross-core
	// RPC exits, and (per Options) delegated interrupt management.
	Gapped
)

func (m Mode) String() string {
	if m == Gapped {
		return "core-gapped"
	}
	return "shared-core"
}

// Options configure a node's execution policy — the axes the paper's
// evaluation sweeps.
type Options struct {
	Mode Mode
	// DelegateTimer / DelegateVIPI: monitor-local interrupt emulation
	// (§4.4); both true in the full design, both false in the Table 3/4
	// "without delegation" ablation.
	DelegateTimer bool
	DelegateVIPI  bool
	// BusyWaitRPC replaces IPI-notified asynchronous calls with
	// Quarantine-style yield-polling vCPU threads (Fig. 6 cyan lines).
	BusyWaitRPC bool
	// ModelEncryption applies the 2-3% memory-encryption overhead to
	// guest compute (off by default, matching the evaluation platform).
	ModelEncryption bool
	// PartitionLLC enables way-partitioning of the shared cache
	// (recommended mitigation for the remaining cross-core channel).
	PartitionLLC bool
	// MetricsWindow, when non-zero, rolls every latency metric over
	// fixed simulated-time windows of this width (trace.Windowed) in
	// addition to the whole-run histograms. Windows are driven purely by
	// engine time, so enabling them never perturbs existing artifacts.
	MetricsWindow sim.Duration
}

// GappedDefault is the full core-gapping design.
func GappedDefault() Options {
	return Options{Mode: Gapped, DelegateTimer: true, DelegateVIPI: true}
}

// GappedNoDelegation is the Table 3/4 ablation.
func GappedNoDelegation() Options { return Options{Mode: Gapped} }

// GappedBusyWait is the Quarantine-style ablation of Fig. 6.
func GappedBusyWait() Options {
	return Options{Mode: Gapped, BusyWaitRPC: true}
}

// Baseline is the shared-core comparison system.
func Baseline() Options { return Options{Mode: SharedCore} }

// Node is one physical machine with its full software stack.
type Node struct {
	Eng  *sim.Engine
	Mach *hw.Machine
	Kern *host.Kernel
	Mon  *rmm.Monitor
	Plan *planner.Planner
	Met  *trace.Set

	P    Params
	Opts Options

	vms     []*VM
	nextPA  granule.PA
	tagSeed *sim.Source
	// wakeups holds the per-host-core wake-up threads (Fig. 4).
	wakeups map[hw.CoreID]*wakeup
	// calls recycles the payloads of vCPU continuations in flight.
	calls sim.Thunks[vcpuCall]
}

// Context bundles the expensive, resettable substrate a Node is built
// on: the simulation engine (event heap, free list, random sources),
// the machine (core microarchitectural buffers, the paged granule
// table, shared socket state) and the metric set. A Context is
// reused across trials via Reset; the cheap per-trial object graph
// (kernel, monitor, planner, VMs) is rebuilt fresh on top by NewNodeIn.
type Context struct {
	Eng  *sim.Engine
	Mach *hw.Machine
	Met  *trace.Set
}

// NewContext builds an unseeded context. Call Reset before each use —
// including the first.
func NewContext() *Context {
	eng := sim.NewEngine(0)
	return &Context{
		Eng:  eng,
		Mach: hw.NewMachine(eng, hw.DefaultConfig(1)),
		Met:  trace.NewSet(),
	}
}

// Reset rewinds every pooled component for a trial on a cores-core
// machine seeded with seed. Afterwards the context is observationally
// identical to a freshly built engine/machine/metric set:
// determinism depends only on (cores, seed), never on what ran before.
func (c *Context) Reset(cores int, seed uint64) {
	c.Eng.Reset(seed)
	c.Mach.Reset(hw.DefaultConfig(cores))
	c.Met.Reset()
}

// NewNode builds a machine with the given core count and boots the stack.
func NewNode(cores int, opts Options, p Params, seed uint64) *Node {
	ctx := NewContext()
	ctx.Reset(cores, seed)
	return NewNodeIn(ctx, opts, p)
}

// NewNodeIn boots the software stack on an already-Reset context. The
// caller owns the context's lifecycle; the node is valid until the
// context's next Reset.
func NewNodeIn(ctx *Context, opts Options, p Params) *Node {
	ctx.Met.SetWindow(opts.MetricsWindow)
	n := &Node{
		Eng:     ctx.Eng,
		Mach:    ctx.Mach,
		Kern:    host.NewKernel(ctx.Mach),
		Met:     ctx.Met,
		P:       p,
		Opts:    opts,
		Plan:    planner.New(ctx.Mach.NumCores()),
		tagSeed: ctx.Eng.Source("core.tags"),
	}
	n.Mon = rmm.New(ctx.Mach, rmm.Config{
		CoreGapped:    opts.Mode == Gapped,
		DelegateTimer: opts.DelegateTimer,
		DelegateVIPI:  opts.DelegateVIPI,
	})
	if opts.PartitionLLC {
		ctx.Mach.Shared().EnablePartitioning()
	}
	return n
}

// rmi issues one RMI call through the monitor's SMC entry — the host's
// only way into the monitor — and turns a failure status into an error.
func (n *Node) rmi(fid smc.FID, args ...uint64) error {
	c := smc.Call{FID: fid}
	copy(c.Args[:], args)
	if res := n.Mon.Handle(c); res.Status != smc.StatusSuccess {
		return fmt.Errorf("core: %v: %v", fid, res.Status)
	}
	return nil
}

// allocGranule delegates and returns a fresh physical granule, walking a
// bump allocator across the machine's memory.
func (n *Node) allocGranule() granule.PA {
	pa := n.nextPA
	n.nextPA += granule.Size
	if err := n.rmi(smc.RMIGranuleDelegate, uint64(pa)); err != nil {
		panic(fmt.Sprintf("core: granule allocation failed: %v", err))
	}
	return pa
}

// VMs reports the node's guests.
func (n *Node) VMs() []*VM { return n.vms }

// RunUntilAllHalted drives the simulation until every vCPU of every VM
// has halted, or maxSim elapses. It reports the halt time.
func (n *Node) RunUntilAllHalted(maxSim sim.Duration) sim.Time {
	deadline := n.Eng.Now().Add(maxSim)
	// Only queued events halt a vCPU, so the check runs once per queued
	// event, not once per chain event (sim.Engine.StepUntil).
	for n.Eng.Now() < deadline {
		if n.allHalted() {
			return n.Eng.Now()
		}
		if !n.Eng.StepUntil(deadline) {
			break
		}
	}
	return n.Eng.Now()
}

func (n *Node) allHalted() bool {
	for _, vm := range n.vms {
		for _, v := range vm.vcpus {
			if !v.halted {
				return false
			}
		}
	}
	return true
}
