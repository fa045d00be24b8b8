// Package hw models the physical machine: cores with security worlds and
// power states, inter-processor interrupts, per-core timers, and the
// machine-wide microarchitectural state. It corresponds to the Armv9
// platform (with RME) the paper's design targets, minus anything the
// higher layers do not observe.
//
// The model enforces physics, not policy: any software layer may ask to
// run anything anywhere. Policy (who may run where) belongs to the
// security monitor and host kernel built on top, which is exactly the
// paper's software-only premise.
package hw

import (
	"fmt"

	"coregap/internal/granule"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// Cross-subsystem perf counters for the machine edges every experiment
// crosses: world switches, interrupt traffic, shared-cache pressure.
var (
	cWorldSwitch = sim.DefineCounter("hw.world_switches")
	cIPISent     = sim.DefineCounter("hw.ipis")
	cLLCFill     = sim.DefineCounter("uarch.llc_fills")
	cLLCEvict    = sim.DefineCounter("uarch.llc_evictions")
	cFlush       = sim.DefineCounter("uarch.flushes")
)

// CoreID identifies a physical core.
type CoreID int

// NoCore is the absent-core sentinel.
const NoCore CoreID = -1

// World is the security state a core currently executes in.
type World int

// Security worlds (Arm CCA terminology; TDX's SEAM and CoVE's confidential
// mode are the same concept — Table 1 of the paper).
const (
	NormalWorld World = iota // host kernel and userspace
	RealmWorld               // RMM and confidential VMs
	RootWorld                // EL3 trusted firmware
)

func (w World) String() string {
	switch w {
	case NormalWorld:
		return "normal"
	case RealmWorld:
		return "realm"
	case RootWorld:
		return "root"
	default:
		return fmt.Sprintf("world(%d)", int(w))
	}
}

// PowerState is a core's hotplug state from the host's point of view.
type PowerState int

// Power states.
const (
	// Online: under host-kernel scheduler control.
	Online PowerState = iota
	// Offline: hotplugged out and halted (normal Linux hotplug endpoint).
	Offline
	// DedicatedRealm: hotplugged out of the host and handed to the
	// security monitor — the paper's modification to the hotplug path
	// (§4.2): instead of halting, the core jumps into realm world.
	DedicatedRealm
)

func (p PowerState) String() string {
	switch p {
	case Online:
		return "online"
	case Offline:
		return "offline"
	case DedicatedRealm:
		return "dedicated-realm"
	default:
		return fmt.Sprintf("power(%d)", int(p))
	}
}

// IRQ is an interrupt number. 0..15 are SGIs (IPIs) as on the Arm GIC.
type IRQ int

// Architectural interrupt numbers used by the models.
const (
	// SGIs 0..6 are "reserved by Linux" (the paper notes 7 of 16 are
	// taken); we model the ones the design needs.
	IPIReschedule IRQ = 0 // host scheduler kick
	IPICall       IRQ = 1 // smp_call_function
	IPIGuestExit  IRQ = 7 // our addition: CVM exit notification (§4.3)
	IPIHostToRMM  IRQ = 8 // our addition: host requests attention of RMM core

	IRQVTimer IRQ = 27 // virtual timer PPI
	IRQPTimer IRQ = 30 // physical timer PPI
	// Device interrupt numbers (SPIs) start at 32.
	SPIBase IRQ = 32
)

// IsSGI reports whether the IRQ is an inter-processor interrupt.
func (i IRQ) IsSGI() bool { return i >= 0 && i < 16 }

// IRQHandler receives interrupts delivered to a core.
type IRQHandler func(from CoreID, irq IRQ)

// DomainRun is a core's complete record of one security domain's
// executions there: the ordinals, in that core's sequence of
// RecordExecution calls, of the domain's first and last execution. "X
// ran on the core after the guest started" is X.Last > guest.First.
type DomainRun struct {
	Domain      uarch.DomainID
	First, Last uint64
}

// Core is one physical core.
type Core struct {
	id   CoreID
	mach *Machine

	world World
	power PowerState

	// Uarch is the core's private microarchitectural state.
	Uarch *uarch.CoreState

	// Exec is the core's compute executor (one context at a time).
	Exec *Executor

	handler IRQHandler

	curDomain uarch.DomainID
	// runs holds one DomainRun per domain ever executed on the core, in
	// first-seen order; execs counts the executions recorded.
	runs  []DomainRun
	execs uint64
}

// reset returns the core to its just-built state: normal world, online,
// no IRQ handler, empty domain record, cold (but capacity-retaining)
// microarchitectural structures, and an idle executor.
func (c *Core) reset() {
	c.world = NormalWorld
	c.power = Online
	c.handler = nil
	c.curDomain = uarch.DomainNone
	c.runs = c.runs[:0]
	c.execs = 0
	c.Uarch.Reset()
	c.Exec.reset()
}

// ID reports the core's identity.
func (c *Core) ID() CoreID { return c.id }

// World reports the core's current security world.
func (c *Core) World() World { return c.world }

// Power reports the core's hotplug state.
func (c *Core) Power() PowerState { return c.power }

// CurrentDomain reports the security domain last recorded as executing.
func (c *Core) CurrentDomain() uarch.DomainID { return c.curDomain }

// SetIRQHandler installs the interrupt handler for whoever owns the core
// (host kernel in normal world, RMM in realm world).
func (c *Core) SetIRQHandler(h IRQHandler) { c.handler = h }

// SwitchWorld performs a world switch on this core, returning its modelled
// direct cost (the EL3 round trip). The caller is responsible for any
// mitigation flushing; the paper's point is precisely that those flushes
// are policy, applied (or not) by trusted firmware.
func (c *Core) SwitchWorld(to World) sim.Duration {
	if c.world == to {
		return 0
	}
	c.world = to
	c.mach.eng.Count(cWorldSwitch)
	c.mach.eng.Trace().Span(sim.TCWorld, "hw.world_switch", int32(c.id), c.mach.worldSwitchCost, int64(to))
	return c.mach.worldSwitchCost
}

// FlushMitigations applies the transient-execution mitigation flush
// sequence to this core's private structures and returns its time cost.
// Prefer this over calling Uarch.FlushMitigations directly: the core
// knows the machine, so the flush lands in counters and the trace.
func (c *Core) FlushMitigations(costs uarch.FlushCosts) sim.Duration {
	d := c.Uarch.FlushMitigations(costs)
	c.mach.eng.Count(cFlush)
	c.mach.eng.Trace().Span(sim.TCUarch, "uarch.flush_mitigations", int32(c.id), d, 0)
	return d
}

// FlushAll architecturally flushes every per-core structure (the full
// world-switch scrub), with the same observability as FlushMitigations.
func (c *Core) FlushAll(costs uarch.FlushCosts) sim.Duration {
	d := c.Uarch.FlushAll(costs)
	c.mach.eng.Count(cFlush)
	c.mach.eng.Trace().Span(sim.TCUarch, "uarch.flush_all", int32(c.id), d, 0)
	return d
}

// RecordExecution notes that domain d executed on this core for the
// purposes of the security audit and microarchitectural state, touching
// per-core structures with the given footprint and secret fraction.
// Once d has been seen on the core it allocates nothing.
func (c *Core) RecordExecution(d uarch.DomainID, footprint, secretFrac float64) {
	c.curDomain = d
	c.Uarch.Touch(d, footprint, secretFrac, c.mach.tagSrc)
	n := c.execs
	c.execs++
	for i := range c.runs {
		if c.runs[i].Domain == d {
			c.runs[i].Last = n
			return
		}
	}
	c.runs = append(c.runs, DomainRun{Domain: d, First: n, Last: n})
}

// DomainsObserved reports every domain that ever executed on the core,
// in first-seen order, with the span of its executions. Tests use this
// to verify the core-gapping invariant: a dedicated core sees only
// {monitor, its guest} once the guest has started. The slice is the
// core's own record; callers must not modify it.
func (c *Core) DomainsObserved() []DomainRun { return c.runs }

// Machine is the whole physical platform.
type Machine struct {
	eng    *sim.Engine
	cores  []*Core
	shared *uarch.SharedState
	gpt    *granule.Table
	tagSrc *sim.Source

	// all stashes every core ever built for this machine; Reset re-views
	// cores as a prefix of it, so a pooled machine cycling between
	// trials of different shapes never rebuilds core state.
	all []*Core

	ipiLatency      sim.Duration
	worldSwitchCost sim.Duration
	freqGHz         float64

	// wires recycles the payloads of interrupts in flight.
	wires sim.Thunks[wire]
}

// Config sizes a machine.
type Config struct {
	Cores           int
	MemBytes        uint64
	IPILatency      sim.Duration // physical SGI delivery latency
	WorldSwitchCost sim.Duration // one EL3-mediated world transition
	FreqGHz         float64
}

// DefaultConfig models the evaluation platform: an AmpereOne-class SoC,
// 3 GHz, no SMT (§5.1; threaded processors would dedicate all sibling
// threads of a core together, §4.2 footnote).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:           cores,
		MemBytes:        16 << 30,
		IPILatency:      500 * sim.Nanosecond,
		WorldSwitchCost: 1200 * sim.Nanosecond,
		FreqGHz:         3.0,
	}
}

// NewMachine builds a machine.
func NewMachine(eng *sim.Engine, cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("hw: machine with no cores")
	}
	m := &Machine{
		eng:             eng,
		shared:          uarch.NewSharedState(131072, 16),
		gpt:             granule.NewTable(cfg.MemBytes).Bind(eng),
		tagSrc:          eng.Source("hw.tags"),
		ipiLatency:      cfg.IPILatency,
		worldSwitchCost: cfg.WorldSwitchCost,
		freqGHz:         cfg.FreqGHz,
	}
	for i := 0; i < cfg.Cores; i++ {
		m.all = append(m.all, m.newCore(CoreID(i)))
	}
	m.cores = m.all
	return m
}

func (m *Machine) newCore(id CoreID) *Core {
	c := &Core{
		id:    id,
		mach:  m,
		Uarch: uarch.NewCoreState(),
	}
	c.Exec = newExecutor(m.eng, c)
	return c
}

// Reset rewinds the machine to the state NewMachine(eng, cfg) would
// produce, reusing every backing allocation: core microarchitectural
// buffers, the granule table, and the shared socket state. The engine
// must have been Reset by the caller first (sources reseed in place, so
// the machine's tag source stays valid). Cores beyond a smaller
// cfg.Cores are kept in reserve; a larger cfg grows the stash once.
func (m *Machine) Reset(cfg Config) {
	if cfg.Cores <= 0 {
		panic("hw: machine with no cores")
	}
	m.shared.Reset()
	m.gpt.Reset(cfg.MemBytes)
	m.ipiLatency = cfg.IPILatency
	m.worldSwitchCost = cfg.WorldSwitchCost
	m.freqGHz = cfg.FreqGHz
	for len(m.all) < cfg.Cores {
		m.all = append(m.all, m.newCore(CoreID(len(m.all))))
	}
	m.cores = m.all[:cfg.Cores]
	for _, c := range m.cores {
		c.reset()
	}
}

// Engine reports the machine's simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.eng }

// NumCores reports the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core id; it panics on an invalid id (modelling bug).
func (m *Machine) Core(id CoreID) *Core {
	if id < 0 || int(id) >= len(m.cores) {
		panic(fmt.Sprintf("hw: no core %d", id))
	}
	return m.cores[id]
}

// Cores returns all cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Shared returns the socket-shared microarchitectural state.
func (m *Machine) Shared() *uarch.SharedState { return m.shared }

// GPT returns the granule protection table.
func (m *Machine) GPT() *granule.Table { return m.gpt }

// IPILatency reports the physical IPI delivery latency.
func (m *Machine) IPILatency() sim.Duration { return m.ipiLatency }

// SendIPI delivers irq from core "from" to core "to" after the physical
// delivery latency. Delivery invokes the *owner's* handler installed at
// delivery time — if ownership changed in flight, the new owner gets it,
// as on real hardware.
func (m *Machine) SendIPI(from, to CoreID, irq IRQ) {
	target := m.Core(to)
	m.eng.Count(cIPISent)
	m.eng.Trace().Span(sim.TCIRQ, "hw.ipi", int32(to), m.ipiLatency, int64(irq))
	m.eng.After(m.ipiLatency, "ipi", m.wires.Bind(deliver, wire{target, from, irq}))
}

// wire is an interrupt in flight to a core: the payload of the delivery
// event SendIPI schedules.
type wire struct {
	target *Core
	from   CoreID
	irq    IRQ
}

// deliver hands an arrived interrupt to the target core's current owner.
func deliver(w wire) {
	if w.target.handler != nil {
		w.target.handler(w.from, w.irq)
	}
}

// SetPower transitions a core's hotplug state. The transition itself is
// modelled as instantaneous; the host's hotplug *procedure* (task
// migration, IRQ retargeting) is modelled in package host where it
// belongs.
func (m *Machine) SetPower(id CoreID, p PowerState) {
	m.Core(id).power = p
}

// OnlineCores reports the cores currently under host control.
func (m *Machine) OnlineCores() []CoreID {
	var out []CoreID
	for _, c := range m.cores {
		if c.power == Online {
			out = append(out, c.id)
		}
	}
	return out
}

// DedicatedCores reports the cores handed to realm world.
func (m *Machine) DedicatedCores() []CoreID {
	var out []CoreID
	for _, c := range m.cores {
		if c.power == DedicatedRealm {
			out = append(out, c.id)
		}
	}
	return out
}

// TouchShared models domain d filling socket-shared structures from any
// core (LLC footprint and, when usesStaging, the staging buffer).
func (m *Machine) TouchShared(d uarch.DomainID, footprint float64, usesStaging bool) {
	evicted := m.shared.TouchShared(d, footprint, usesStaging, m.tagSrc)
	m.eng.Count(cLLCFill)
	if evicted > 0 {
		m.eng.CountN(cLLCEvict, uint64(evicted))
		m.eng.Trace().Emit(sim.TCUarch, "uarch.llc_evict", sim.LaneGlobal, int64(evicted))
	}
}
