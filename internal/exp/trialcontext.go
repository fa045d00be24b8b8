package exp

import (
	"coregap/internal/core"
	"coregap/internal/hw"
	"coregap/internal/sim"
)

// TrialContext is one worker's warmed simulation substrate, reused
// across every trial that worker executes. It wraps a core.Context —
// engine (event heap, node free list, named sources), machine (per-core
// microarchitectural buffers, the paged granule table, shared socket
// state) and metric set — and rewinds it per trial instead of
// rebuilding the object graph.
//
// A fresh context costs ~0.2 MB; with one TrialContext per worker the
// steady-state trial allocates only its thin per-trial stack (kernel,
// monitor, VMs, result maps), ~66 KB (TestTrialAllocs).
//
// A TrialContext is not safe for concurrent use; the Runner hands each
// worker goroutine its own. Determinism is unaffected: every Reset
// leaves the context observationally identical to freshly constructed
// components, so ExecuteIn(ctx, spec) and Execute(spec) return
// byte-identical trials.
type TrialContext struct {
	core *core.Context
}

// NewTrialContext returns a context ready for any sequence of specs.
func NewTrialContext() *TrialContext {
	return &TrialContext{core: core.NewContext()}
}

// node resets the context for spec and boots a node on it. A nil
// context (fresh-execution mode) builds everything from scratch,
// which is the reference behaviour pooling must reproduce exactly.
func (c *TrialContext) node(spec ScenarioSpec) *core.Node {
	opts := spec.Config.Options()
	opts.MetricsWindow = spec.MetricsWindow
	if c == nil {
		return core.NewNode(spec.Cores, opts, core.DefaultParams(), spec.Seed)
	}
	c.core.Reset(spec.Cores, spec.Seed)
	return core.NewNodeIn(c.core, opts, core.DefaultParams())
}

// engine resets the context to a cores-core machine for seed and
// returns its engine (raw-transport trials that never boot a node).
func (c *TrialContext) engine(cores int, seed uint64) *sim.Engine {
	if c == nil {
		return sim.NewEngine(seed)
	}
	c.core.Reset(cores, seed)
	return c.core.Eng
}

// machine is engine plus the machine itself, for trials that drive
// hardware directly (the null-call paths, the attack battery).
func (c *TrialContext) machine(cores int, seed uint64) (*sim.Engine, *hw.Machine) {
	if c == nil {
		eng := sim.NewEngine(seed)
		return eng, hw.NewMachine(eng, hw.DefaultConfig(cores))
	}
	c.core.Reset(cores, seed)
	return c.core.Eng, c.core.Mach
}

// kernelParts is the pooled engine, machine and metric set, for
// raw-transport trials that build a bare host kernel.
func (c *TrialContext) kernelParts(cores int, seed uint64) *core.Context {
	if c == nil {
		ctx := core.NewContext()
		ctx.Reset(cores, seed)
		return ctx
	}
	c.core.Reset(cores, seed)
	return c.core
}
