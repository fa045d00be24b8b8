package core

import (
	"coregap/internal/guest"
	"coregap/internal/host"
	"coregap/internal/hw"
	"coregap/internal/rmm"
	"coregap/internal/rpc"
	"coregap/internal/sim"
)

// ExitReason classifies VM exits for accounting (Table 4 distinguishes
// interrupt-related exits from the rest).
type ExitReason int

// Exit reasons.
const (
	ExitTimer   ExitReason = iota // virtual-timer interrupt or EOI trap
	ExitVIPI                      // ICC_SGI1R trap (guest IPI send)
	ExitMgmtIRQ                   // residual host management interrupt
	ExitMMIO                      // device doorbell / emulated MMIO
	ExitMisc                      // other traps (console, sysregs)
	ExitKick                      // host-requested exit for injection (Fig. 5)
	ExitHalt                      // vCPU finished

	numExitReasons
)

// InterruptRelated reports whether the reason counts into Table 4's
// "interrupt-related exits" row.
func (r ExitReason) InterruptRelated() bool {
	switch r {
	case ExitTimer, ExitVIPI, ExitMgmtIRQ, ExitKick:
		return true
	}
	return false
}

func (r ExitReason) String() string {
	switch r {
	case ExitTimer:
		return "timer"
	case ExitVIPI:
		return "vipi"
	case ExitMgmtIRQ:
		return "mgmt-irq"
	case ExitMMIO:
		return "mmio"
	case ExitMisc:
		return "misc"
	case ExitKick:
		return "kick"
	case ExitHalt:
		return "halt"
	default:
		return "unknown"
	}
}

// exitInfo is the record the monitor writes to shared memory on an exit.
type exitInfo struct {
	reason ExitReason
	req    guest.IORequest // ExitMMIO
	target int             // ExitVIPI
}

// VCPU is one virtual CPU in either execution mode.
type VCPU struct {
	vm  *VM
	idx int

	rec    *rmm.REC  // gapped only
	dcore  hw.CoreID // dedicated core (gapped) or NoCore
	thread *host.Thread
	mb     *rpc.Mailbox // run-call channel (gapped)

	// Guest-side execution state.
	started bool
	halted  bool
	stopped bool
	inGuest bool // gapped: guest context live on the dedicated core
	idle    bool // WFI (or blocked on sync I/O)
	waitIO  bool

	hasCur  bool
	cur     guest.Action
	remWork sim.Duration
	// afterCompute, when set, overrides the continuation of the current
	// compute slice (doorbell costs and handler sequences).
	afterCompute func()

	// Interrupt machinery.
	tick      *sim.Ticker
	mgmtTimer *sim.Timer
	miscTimer *sim.Timer

	// Gapped exit plumbing.
	exitCompletedAt sim.Time
	haveExitStamp   bool
	kickQueue       []guest.Event
	pendingInj      []guest.Event
	injSpare        []guest.Event // pendingInj's second buffer (ctxRestore)
	kickRequested   bool
	// tickEOIPending marks that the guest must take the second
	// (EOI/re-arm) exit of a non-delegated timer tick after re-entry.
	tickEOIPending bool
	// epoch increments on every exit and entry; monitor-local
	// continuations (delegated timer/IPI handling) check it so they do
	// not resume a guest context that exited and re-entered meanwhile.
	epoch uint64
	// pendingRebind is the target core of an in-flight coarse-timescale
	// rebinding (hw.NoCore when none); rebindInFlight guards the whole
	// window from the host's request to the committed migration.
	pendingRebind  hw.CoreID
	rebindInFlight bool
	// exit is the record of the exit in flight, from exitToHost until
	// the monitor posts it: the mailbox carries &exit rather than a
	// boxed copy, and the call protocol (one outstanding response)
	// keeps it stable until the host has read it.
	exit exitInfo
	// poll is the vCPU thread's idle loop under the busy-wait ablation:
	// hostPollOnce, ready once the exit record is visible in the
	// mailbox.
	poll host.Poll

	src *sim.Source

	// Per-event callbacks, bound once in newVCPU so the exit, entry and
	// compute paths allocate nothing. Continuations that carry a payload
	// go through bind instead.
	guestDoneFn     func() // guestComputeDone
	pickupFn        func() // pickup
	ctxSaveFn       func() // ctxSave
	ctxRestoreFn    func() // ctxRestore
	injectKickFn    func() // injectKick
	advanceSharedFn func() // advanceShared
	sharedTickFn    func() // sharedTick
}

// newVCPU builds vCPU idx of vm on dedicated core dcore (hw.NoCore in
// shared mode) with its per-event callbacks bound.
func newVCPU(vm *VM, idx int, dcore hw.CoreID) *VCPU {
	v := &VCPU{vm: vm, idx: idx, dcore: dcore, pendingRebind: hw.NoCore}
	v.guestDoneFn = v.guestComputeDone
	v.pickupFn = v.pickup
	v.ctxSaveFn = v.ctxSave
	v.ctxRestoreFn = v.ctxRestore
	v.injectKickFn = v.injectKick
	v.advanceSharedFn = v.advanceShared
	v.sharedTickFn = v.sharedTick
	return v
}

// vcpuCall is the payload of a vCPU continuation in flight: the vCPU it
// resumes, plus whichever of the entry epoch it checks, the peer vCPU,
// the I/O request, the exit record or the guest event it carries.
type vcpuCall struct {
	v     *VCPU
	epoch uint64
	peer  int
	req   guest.IORequest
	exit  exitInfo
	ev    guest.Event
}

// bind returns a callback running fn(c) for this vCPU, drawn from the
// node's free list (see sim.Thunks).
func (v *VCPU) bind(fn func(vcpuCall), c vcpuCall) func() {
	c.v = v
	return v.vm.node.calls.Bind(fn, c)
}

// Index reports the vCPU index.
func (v *VCPU) Index() int { return v.idx }

// Halted reports whether the vCPU has finished its program.
func (v *VCPU) Halted() bool { return v.halted }

// DedicatedCore reports the gapped-mode core (NoCore in shared mode).
func (v *VCPU) DedicatedCore() hw.CoreID { return v.dcore }

func (v *VCPU) node() *Node      { return v.vm.node }
func (v *VCPU) params() *Params  { return &v.vm.node.P }
func (v *VCPU) eng() *sim.Engine { return v.vm.node.Eng }

func (v *VCPU) gapped() bool { return v.vm.node.Opts.Mode == Gapped }

// encFactor is the guest-compute scaling for memory encryption.
func (v *VCPU) encFactor() float64 {
	if v.node().Opts.ModelEncryption {
		return 1 + v.params().MemEncOverhead
	}
	return 1
}

// countExit records a host-visible exit for Table 4 accounting.
func (v *VCPU) countExit(r ExitReason) {
	n := v.node()
	n.Eng.Count(cVCPUExit)
	n.Eng.Trace().Emit(sim.TCExit, exitTraceName(r), int32(v.dcore), int64(v.idx))
	c := v.vm.met
	n.Eng.Count(c.exitsTotal)
	if r.InterruptRelated() {
		n.Eng.Count(c.exitsInterrupt)
	}
	n.Eng.Count(c.exits[r])
}

// startTimers arms the guest tick and the residual-exit generators.
func (v *VCPU) startTimers() {
	if v.started {
		return
	}
	v.started = true
	n := v.node()
	p := v.params()
	v.src = n.Eng.Source("vcpu." + v.thread.Name())

	v.tick = sim.NewTicker(n.Eng, "tick", p.GuestTick, v.onTick)
	// Stagger tick phases across vCPUs: real guests do not tick in
	// lockstep, and a thundering herd of synchronized timer exits would
	// distort the host-core queueing model.
	phase := v.src.Duration(0, p.GuestTick-1)
	n.Eng.After(phase, "tick-phase", func() {
		if !v.halted && !v.stopped {
			v.tick.Start()
		}
	})

	if v.gapped() {
		if p.MgmtExitRate > 0 {
			v.mgmtTimer = sim.NewTimer(n.Eng, "mgmt", func() { v.onResidual(ExitMgmtIRQ) })
			v.mgmtTimer.Arm(v.src.Exp(rateToMean(p.MgmtExitRate)))
		}
		misc := p.MiscExitRateDeleg
		if !n.Opts.DelegateTimer {
			misc = p.MiscExitRateNoDeleg
		}
		if misc > 0 {
			v.miscTimer = sim.NewTimer(n.Eng, "misc", func() { v.onResidual(ExitMisc) })
			v.miscTimer.Arm(v.src.Exp(rateToMean(misc)))
		}
	}
}

func rateToMean(perSec float64) sim.Duration {
	return sim.Duration(float64(sim.Second) / perSec)
}

func (v *VCPU) stopTimers() {
	if v.tick != nil {
		v.tick.Stop()
	}
	if v.mgmtTimer != nil {
		v.mgmtTimer.Disarm()
	}
	if v.miscTimer != nil {
		v.miscTimer.Disarm()
	}
}

// shutdown force-stops the vCPU (VM teardown).
func (v *VCPU) shutdown() {
	v.stopped = true
	v.halted = true
	v.stopTimers()
	if v.gapped() {
		if v.inGuest {
			v.pauseGuestCompute()
			v.inGuest = false
		}
		v.mb.Abort()
	}
	v.node().Kern.Kill(v.thread)
}

// FootprintReporter is an optional guest.Program extension: workloads
// whose working-set size varies (e.g. the CoreMark-PRO suite) report it
// so interference costs scale with the state actually at risk (§2.3).
type FootprintReporter interface {
	Footprint(vcpu int) float64
}

// footprint reports the guest's current per-core footprint.
func (v *VCPU) footprint() float64 {
	if fr, ok := v.vm.prog.(FootprintReporter); ok {
		if f := fr.Footprint(v.idx); f > 0 {
			return f
		}
	}
	return v.params().GuestFootprint
}

// deliverEvent hands an event to the program at guest level, charging the
// interrupt-handler cost where appropriate, and un-idles the guest.
// Returns true when the guest was idle and should re-evaluate its
// program.
func (v *VCPU) deliverEvent(ev guest.Event) bool {
	v.node().Eng.Count(cInjections)
	v.node().Eng.Trace().Emit(sim.TCIRQ, "core.inject", int32(v.dcore), int64(ev.Kind))
	if ev.Kind == guest.EvVIPI && v.idx < len(v.vm.vipiSentAt) {
		if t := v.vm.vipiSentAt[v.idx]; t != 0 {
			v.node().Met.Lat(v.vm.vipiLatName, v.eng().Now(), v.eng().Now().Sub(t))
			v.vm.vipiSentAt[v.idx] = 0
		}
	}
	v.vm.prog.Deliver(v.idx, ev)
	if ev.Kind == guest.EvIOComplete || ev.Kind == guest.EvPacket {
		v.waitIO = false
	}
	wasIdle := v.idle
	v.idle = false
	return wasIdle || !v.hasCur
}
