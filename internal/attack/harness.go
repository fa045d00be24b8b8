package attack

import (
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
	"coregap/internal/vulncat"
)

// Scheduling selects how attacker and victim are placed — the variable
// the paper's design controls.
type Scheduling int

// Placements under test.
const (
	// SharedTimeSliced: hypervisor time-slices attacker and victim on
	// one core (the §3 attack: dispatch the attacker's vCPU on the
	// victim's core). Context switches go through the monitor, which
	// applies the standard mitigation flushes — the retroactive, partial
	// mitigations of §2.1.
	SharedTimeSliced Scheduling = iota
	// SharedTimeSlicedNoFlush: same, but against vulnerabilities whose
	// structures the deployed mitigations do not cover (or before a
	// mitigation exists — the paper's zero-day argument).
	SharedTimeSlicedNoFlush
	// CoreGappedPlacement: monitor enforces disjoint cores.
	CoreGappedPlacement
)

func (s Scheduling) String() string {
	switch s {
	case SharedTimeSliced:
		return "shared-core (flushing monitor)"
	case SharedTimeSlicedNoFlush:
		return "shared-core (unmitigated zero-day)"
	default:
		return "core-gapped"
	}
}

// Harness drives attacker/victim executions over a machine.
type Harness struct {
	mach     *hw.Machine
	eng      *sim.Engine
	victim   uarch.DomainID
	attacker uarch.DomainID
	src      *sim.Source
	costs    uarch.FlushCosts // resolved once; read by every flush
}

// NewHarness builds a two-domain harness on a fresh machine.
func NewHarness(seed uint64, cores int, partitionLLC bool) *Harness {
	eng := sim.NewEngine(seed)
	mach := hw.NewMachine(eng, hw.DefaultConfig(cores))
	return NewHarnessOn(eng, mach, partitionLLC)
}

// NewHarnessOn builds the harness on a caller-provided engine and
// machine — typically pooled ones that were just Reset — so repeated
// battery trials skip the machine construction cost. The pair must be
// in their just-built (or just-Reset) state; behaviour is then
// identical to NewHarness with the engine's seed.
func NewHarnessOn(eng *sim.Engine, mach *hw.Machine, partitionLLC bool) *Harness {
	if partitionLLC {
		mach.Shared().EnablePartitioning()
		mach.Shared().AssignWays(uarch.Guest(0), 4)
		mach.Shared().AssignWays(uarch.Guest(1), 4)
	}
	return &Harness{
		mach:     mach,
		eng:      eng,
		victim:   uarch.Guest(0),
		attacker: uarch.Guest(1),
		src:      eng.Source("attack"),
		costs:    uarch.DefaultFlushCosts(),
	}
}

// Machine exposes the underlying machine.
func (h *Harness) Machine() *hw.Machine { return h.mach }

// Victim and Attacker report the two domains.
func (h *Harness) Victim() uarch.DomainID   { return h.victim }
func (h *Harness) Attacker() uarch.DomainID { return h.attacker }

// runVictim models the victim executing secret-dependent code on a core:
// it fills per-core structures (with secrets) and shared structures, and
// executes the staging-buffer instructions CrossTalk targets.
func (h *Harness) runVictim(core hw.CoreID) {
	c := h.mach.Core(core)
	c.RecordExecution(h.victim, 0.7, 0.3)
	h.mach.TouchShared(h.victim, 0.2, true)
}

// monitorSwitch models the security monitor interposing on a context
// switch away from the victim, applying the deployed mitigation flushes
// (which cover the MDS-class buffers but not, e.g., L1D or TLBs — §2.1's
// "often applied only retroactively" and partial).
func (h *Harness) monitorSwitch(core hw.CoreID) {
	h.mach.Core(core).FlushMitigations(h.costs)
	h.mach.Core(core).RecordExecution(uarch.DomainMonitor, 0.02, 0)
}

// Attempt runs one attacker/victim round under the given scheduling for
// the given vulnerability and reports the outcome. It counts the leaked
// secrets in place (Primitive.Leaks) and, once warm, allocates nothing.
func (h *Harness) Attempt(v vulncat.Vuln, sched Scheduling) Outcome {
	attackerCore, placement := h.stage(sched)
	n := 0
	// Architectural reach check: the primitive must also be plausible at
	// this placement per the catalogue (e.g. an SMT-only attack cannot
	// fire cross-core even if some residue is visible). Sampling has no
	// side effects, so an unreachable primitive need not sample at all.
	if vulncat.Exploitable(v, placement) {
		n = Primitive{Vuln: v}.Leaks(h.mach, attackerCore, h.attacker, h.victim)
	}
	return Outcome{Vuln: v, Placement: placement, Leaked: n > 0, Samples: n}
}

// stage runs the victim and the context switch that precede the
// attacker's primitive under sched, and reports where the attacker runs.
func (h *Harness) stage(sched Scheduling) (attackerCore hw.CoreID, placement vulncat.Placement) {
	victimCore := hw.CoreID(0)
	placement = vulncat.PlacedSameThread
	if sched == CoreGappedPlacement {
		attackerCore = 1
		placement = vulncat.PlacedOtherCore
	}

	// Victim computes on its core with secrets in flight.
	h.runVictim(victimCore)

	switch sched {
	case SharedTimeSliced:
		// Hypervisor switches the core to the attacker; the monitor
		// interposes and flushes what current mitigations cover.
		h.monitorSwitch(victimCore)
	case SharedTimeSlicedNoFlush:
		// Zero-day: no mitigation exists yet for this structure class.
	case CoreGappedPlacement:
		// No switch happens at all: the attacker was never allowed on
		// the victim's core. Nothing to flush, nothing to race.
	}

	return attackerCore, placement
}

// RunBattery attempts every catalogued vulnerability under a scheduling.
func (h *Harness) RunBattery(sched Scheduling) BatteryResult {
	cat := vulncat.Catalogue()
	res := BatteryResult{Config: sched.String(), Outcomes: make([]Outcome, 0, len(cat))}
	for _, v := range cat {
		h.scrub()
		res.Outcomes = append(res.Outcomes, h.Attempt(v, sched))
	}
	return res
}

// scrub flushes every per-core and shared structure, giving each
// battery attempt fresh machine state so attempts are independent.
func (h *Harness) scrub() {
	for _, c := range h.mach.Cores() {
		c.FlushAll(h.costs)
	}
	h.mach.Shared().Staging().Flush()
	h.mach.Shared().LLC().Flush()
}
