package core

import (
	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/rpc"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// This file is the core-gapped execution path (§4.2-§4.4): the guest runs
// directly on its dedicated core under monitor control; every exit is a
// cross-core RPC to the host core; interrupt delegation handles timer and
// IPI traffic locally.

// installRMMCoreHandler takes over the dedicated core's interrupt
// delivery for the monitor: after the hotplug handoff, the host never
// handles another interrupt on this core. The only interrupt the monitor
// expects is the host's doorbell requesting a guest exit (Fig. 5).
func (v *VCPU) installRMMCoreHandler() {
	core := v.node().Mach.Core(v.dcore)
	core.SetIRQHandler(func(from hw.CoreID, irq hw.IRQ) {
		if irq == hw.IPIHostToRMM {
			v.onHostKick()
		}
	})
	core.SwitchWorld(hw.RealmWorld)
}

// postRunCall is the host-side REC-enter: post the run request into
// shared memory; the monitor's poll loop on the (idle) dedicated core
// picks it up after the propagation delay and enters the guest.
func (v *VCPU) postRunCall() {
	if v.halted || v.stopped {
		return
	}
	p := v.params()
	// A requested core migration commits between run calls (§3's coarse
	// rebinding): the monitor validates, wipes the old core, and the
	// next entry lands on the new one.
	v.applyPendingRebind()
	// Interrupts the host wants delivered ride along in the run call's
	// virtual interrupt list (Fig. 5 step 1); any kick that raced with a
	// self-initiated exit is folded in here.
	if len(v.kickQueue) > 0 {
		v.pendingInj = append(v.pendingInj, v.kickQueue...)
		v.kickQueue = v.kickQueue[:0]
		v.kickRequested = false
	}
	v.mb.Post("run", p.Transport.Prop)
	v.eng().After(p.Transport.PickupLatency(), "pickup", v.pickupFn)
}

// pickup is the monitor's poll finding the posted run call.
func (v *VCPU) pickup() {
	if v.stopped {
		return
	}
	if _, ok := v.mb.TryTake(); ok {
		v.enterGuest()
	}
}

// enterGuest is the monitor-side REC entry on the dedicated core.
func (v *VCPU) enterGuest() {
	n := v.node()
	p := v.params()
	if err := n.Mon.CheckEnter(v.rec, v.dcore); err != nil {
		// Orchestration never violates the binding; a failure here is a
		// modelling bug and must be loud.
		panic("core: CheckEnter failed: " + err.Error())
	}
	n.Mon.NoteEnter(v.rec)
	n.Eng.Count(cRECEnter)
	n.Eng.Trace().Emit(sim.TCExit, "core.rec_enter", int32(v.dcore), int64(v.idx))
	if v.haveExitStamp {
		n.Met.Lat(v.vm.runToRunName, n.Eng.Now(), n.Eng.Now().Sub(v.exitCompletedAt))
		v.haveExitStamp = false
	}
	// Context restore on the dedicated core, then guest execution.
	v.eng().After(p.CtxSaveWipe, "ctx-restore", v.ctxRestoreFn)
}

// ctxRestore completes REC entry once the context is restored: the
// guest is live, and the interrupts the host passed in the run call are
// delivered before it resumes.
func (v *VCPU) ctxRestore() {
	if v.stopped {
		return
	}
	n := v.node()
	v.inGuest = true
	v.epoch++
	v.startTimers()
	n.Mach.Core(v.dcore).RecordExecution(v.vm.domain, v.footprint(), 0.02)

	// Deliver interrupts the host passed in the run call. The list is
	// double-buffered: anything queued while delivering lands in the
	// spare array, and the drained one becomes the next spare.
	inj := v.pendingInj
	v.pendingInj = v.injSpare[:0]
	var handlerCost sim.Duration
	for _, ev := range inj {
		v.deliverEvent(ev)
		handlerCost += v.params().GuestIRQHandle
	}
	v.injSpare = inj[:0]
	if handlerCost > 0 {
		v.eng().After(handlerCost, "irq-handlers", v.bind(afterEntryHandlers, vcpuCall{epoch: v.epoch}))
	} else {
		afterEntryHandlers(vcpuCall{v: v, epoch: v.epoch})
	}
}

// afterEntryHandlers resumes the guest once the entry's interrupt
// handlers have run, unless an exit intervened.
func afterEntryHandlers(c vcpuCall) {
	v := c.v
	if v.stopped || !v.inGuest || v.epoch != c.epoch {
		// An exit intervened while the handler cost elapsed; the
		// re-entry path owns the continuation now.
		return
	}
	if v.tickEOIPending {
		// Second exit of a non-delegated timer tick.
		v.tickEOIPending = false
		v.exitToHost(exitInfo{reason: ExitTimer})
		return
	}
	v.resumeGuest() // WFI guests simply keep sitting on their core
}

// advance interprets the program's next action on the dedicated core.
func (v *VCPU) advance() {
	if v.stopped || !v.inGuest {
		return
	}
	if v.waitIO || v.idle {
		return
	}
	if v.node().Mach.Core(v.dcore).Exec.Busy() {
		// The guest is already executing: a racing continuation (e.g. a
		// delegated tick overlapping an entry's handler window) has
		// nothing left to do.
		return
	}
	if !v.hasCur {
		v.cur = v.vm.prog.Next(v.idx)
		v.hasCur = true
	}
	switch v.cur.Kind {
	case guest.ActCompute:
		v.remWork = sim.Duration(float64(v.cur.Work) * v.encFactor())
		v.hasCur = false // consumed; remWork tracks the remainder
		v.startGuestCompute()

	case guest.ActIO:
		req := v.cur.Req
		v.hasCur = false
		if req.Dev == guest.SRIOVNet {
			// Pass-through doorbell: a device register write, no trap.
			v.remWork = 200
			v.afterCompute = v.bind(vfDoorbellDone, vcpuCall{req: req})
			v.startGuestCompute()
			return
		}
		// virtio doorbell traps to the host.
		if req.Sync {
			v.waitIO = true
		}
		v.exitToHost(exitInfo{reason: ExitMMIO, req: req})

	case guest.ActVIPI:
		target := v.cur.Target
		v.hasCur = false
		if target >= 0 && target < len(v.vm.vipiSentAt) {
			v.vm.vipiSentAt[target] = v.eng().Now()
		}
		if v.node().Opts.DelegateVIPI {
			v.delegatedVIPI(target)
		} else {
			v.exitToHost(exitInfo{reason: ExitVIPI, target: target})
		}

	case guest.ActWFI:
		v.hasCur = false
		v.idle = true
		// The core stays in the guest at a WFI: no host interaction at
		// all, one of the structural wins of dedicated cores.

	case guest.ActHalt:
		v.hasCur = false
		v.halted = true
		v.stopTimers()
		v.exitToHost(exitInfo{reason: ExitHalt})
	}
}

// afterCompute optionally overrides the continuation of the current
// compute slice (used for doorbell costs and handler sequences).
// It is consumed on completion.

// startGuestCompute runs v.remWork on the dedicated core.
func (v *VCPU) startGuestCompute() {
	core := v.node().Mach.Core(v.dcore)
	if core.Exec.Busy() {
		// A concurrent continuation (entry path, delegated interrupt
		// handler) already resumed the guest; the first wins.
		return
	}
	core.Exec.Start("guest", v.remWork, 1.0, v.guestDoneFn)
}

// guestComputeDone ends a compute slice on the dedicated core and runs
// its continuation.
func (v *VCPU) guestComputeDone() {
	v.remWork = 0
	cont := v.afterCompute
	v.afterCompute = nil
	if v.stopped {
		return
	}
	if cont != nil {
		cont()
	} else {
		v.advance()
	}
}

// vfDoorbellDone follows the SR-IOV doorbell write: the request goes to
// the virtual function with no host involvement.
func vfDoorbellDone(c vcpuCall) {
	v := c.v
	v.vm.VMM.VF.Submit(v.idx, c.req)
	if c.req.Sync {
		v.waitIO = true
	} else {
		v.advance()
	}
}

// pauseGuestCompute preempts the guest, remembering remaining work.
func (v *VCPU) pauseGuestCompute() {
	core := v.node().Mach.Core(v.dcore)
	if core.Exec.Busy() {
		v.remWork = core.Exec.Preempt()
	}
}

// resumeGuest continues after a monitor-local interruption. It is safe
// against racing continuations: if the guest is already running it does
// nothing, and a compute slice preempted exactly at its completion
// boundary still runs its pending continuation.
func (v *VCPU) resumeGuest() {
	if v.stopped || !v.inGuest || v.idle || v.waitIO {
		return
	}
	if v.node().Mach.Core(v.dcore).Exec.Busy() {
		return
	}
	if v.remWork > 0 {
		v.startGuestCompute()
		return
	}
	if cont := v.afterCompute; cont != nil {
		v.afterCompute = nil
		cont()
		return
	}
	v.advance()
}

// exitToHost stops guest execution and performs the monitor's exit path:
// save and wipe context, write the exit record to shared memory, and
// notify the host core by IPI (unless the busy-wait ablation is polling).
func (v *VCPU) exitToHost(info exitInfo) {
	n := v.node()
	p := v.params()
	v.pauseGuestCompute()
	v.inGuest = false
	v.epoch++
	v.countExit(info.reason)
	n.Mon.NoteExit(v.rec)

	v.exit = info
	v.eng().After(p.CtxSaveWipe, "ctx-save", v.ctxSaveFn)
}

// ctxSave posts the exit record once the context is saved and wiped,
// and notifies the host core: by IPI, or, under the busy-wait ablation,
// by telling the kernel when the polling vCPU thread will see it.
func (v *VCPU) ctxSave() {
	if v.stopped {
		return
	}
	n := v.node()
	v.mb.Complete(&v.exit, v.params().Transport.Prop)
	v.exitCompletedAt = n.Eng.Now()
	v.haveExitStamp = true
	if n.Opts.BusyWaitRPC {
		n.Kern.PollReady(v.thread)
	} else {
		n.Mach.SendIPI(v.dcore, v.vm.assign.hostCore, hw.IPIGuestExit)
	}
}

// hostPollOnce checks this vCPU's channel for a completed exit and, if
// one is present, dispatches handling onto the vCPU thread. Called from
// the wake-up thread (IPI mode) or from the vCPU thread's own poll loop
// (busy-wait mode).
func (v *VCPU) hostPollOnce() {
	resp, ok := v.mb.TryResponse()
	if !ok {
		return
	}
	info := *resp.(*exitInfo)
	v.node().Kern.Submit(v.thread, "exit", v.hostExitWork(info), v.bind(finishExitCall, vcpuCall{exit: info}))
}

func finishExitCall(c vcpuCall) { c.v.finishExit(c.exit) }

// hostExitWork is the host-side CPU cost of handling one exit. Every
// path starts with the vCPU-thread wake (the run call returning) and the
// kernel exit decode.
func (v *VCPU) hostExitWork(info exitInfo) sim.Duration {
	p := v.params()
	base := p.SchedWake + p.KVMExitKernel
	switch info.reason {
	case ExitTimer, ExitVIPI, ExitMgmtIRQ:
		// Interrupt-management exits bounce through GIC emulation for
		// realm VMs (no in-kernel vGIC fast path).
		return base + p.GapGICEmul
	case ExitKick:
		return base + p.InjectKick
	case ExitMMIO:
		// Device doorbells bounce through the userspace VMM (no
		// ioeventfd in the CCA host stack) — a large part of why
		// emulated I/O is core gapping's worst case (§5.3).
		return base + p.UserMMIO
	case ExitMisc:
		return base + p.UserMMIO // userspace emulation round trip
	default: // ExitHalt
		return base
	}
}

// finishExit completes host-side exit handling and re-enters the guest.
func (v *VCPU) finishExit(info exitInfo) {
	if v.stopped {
		return
	}
	switch info.reason {
	case ExitMMIO:
		v.vm.VMM.Submit(v.idx, info.req)
	case ExitVIPI:
		// Non-delegated guest IPI: the host must force the target vCPU
		// out and pass the interrupt on its next run call.
		if info.target >= 0 && info.target < len(v.vm.vcpus) {
			v.vm.vcpus[info.target].hostRequestInjection(guest.Event{
				Kind: guest.EvVIPI, From: v.idx,
			})
		}
	case ExitKick:
		v.pendingInj = append(v.pendingInj, v.kickQueue...)
		v.kickQueue = v.kickQueue[:0]
		v.kickRequested = false
	case ExitHalt:
		return // never re-entered
	}
	v.postRunCall()
}

// hostRequestInjection queues an event for a guest and kicks its vCPU out
// so the interrupt can be passed on the next run call (Fig. 5: "the KVM
// host can still request exits ... by sending an IPI").
func (v *VCPU) hostRequestInjection(ev guest.Event) {
	if v.halted || v.stopped {
		return
	}
	n := v.node()
	v.kickQueue = append(v.kickQueue, ev)
	work := v.params().InjectKick
	if ev.Kind == guest.EvVIPI {
		// Cross-vCPU interrupt without delegation: the host must also
		// synchronize the target's virtual interrupt state.
		work += v.params().VGICSync
	}
	if v.kickRequested {
		return
	}
	v.kickRequested = true
	n.Kern.Submit(v.thread, "inject-kick", work, v.injectKickFn)
}

// injectKick is the host's injection request reaching the vCPU thread.
func (v *VCPU) injectKick() {
	if v.stopped {
		return
	}
	// If the guest is currently in (or entering) a run call, doorbell
	// its core; the monitor will exit with ExitKick. Otherwise the
	// events ride along on the next entry.
	if v.mb.State() == rpc.Serving {
		v.node().Mach.SendIPI(v.vm.assign.hostCore, v.dcore, hw.IPIHostToRMM)
	} else {
		v.pendingInj = append(v.pendingInj, v.kickQueue...)
		v.kickQueue = v.kickQueue[:0]
		v.kickRequested = false
	}
}

// onHostKick runs on the dedicated core when the host doorbells it.
func (v *VCPU) onHostKick() {
	if v.stopped || v.halted {
		return
	}
	v.node().Eng.Count(cHostKick)
	if !v.inGuest {
		return // already exited; the host will see the response
	}
	v.exitToHost(exitInfo{reason: ExitKick})
}

// onTick handles one virtual-timer tick (gapped mode).
func (v *VCPU) onTick() {
	if v.halted || v.stopped {
		return
	}
	if !v.gapped() {
		v.onTickShared()
		return
	}
	n := v.node()
	p := v.params()
	n.Eng.Count(v.vm.met.ticks)

	if n.Opts.DelegateTimer {
		// Monitor-local emulation (§4.4): trap, re-arm, inject, guest
		// handler — all on the dedicated core, no host interaction.
		n.Eng.Count(cTickDeleg)
		n.Eng.Trace().Emit(sim.TCIRQ, "core.tick_delegated", int32(v.dcore), int64(v.idx))
		n.Eng.Count(v.vm.met.ticksDelegated)
		if !v.inGuest {
			return // vCPU between run calls; tick state folded into entry
		}
		v.pauseGuestCompute()
		cost := p.RMMTimerHandle + p.GuestIRQHandle
		n.Mach.Core(v.dcore).RecordExecution(uarch.DomainMonitor, 0.02, 0)
		v.eng().After(cost, "tick-delegated", v.bind(delegatedTickDone, vcpuCall{epoch: v.epoch}))
		return
	}

	// Without delegation each tick costs two exits (§4.4): the timer
	// interrupt itself, then the guest's EOI/re-arm trap after handling.
	if !v.inGuest {
		return
	}
	v.pendingInj = append(v.pendingInj, guest.Event{Kind: guest.EvTimer})
	v.tickEOIPending = true
	v.exitToHost(exitInfo{reason: ExitTimer})
}

// delegatedTickDone delivers a delegated timer tick once the monitor and
// guest handlers have run, unless an exit (and possibly re-entry)
// intervened — the tick then folded into the exit path.
func delegatedTickDone(c vcpuCall) {
	v := c.v
	if v.stopped || !v.inGuest || v.epoch != c.epoch {
		return
	}
	v.vm.prog.Deliver(v.idx, guest.Event{Kind: guest.EvTimer})
	if v.idle {
		// Timer wake-up from WFI: re-evaluate the program.
		v.idle = false
		v.advance()
		return
	}
	v.resumeGuest()
}

// onResidual fires a background management/miscellaneous exit.
func (v *VCPU) onResidual(reason ExitReason) {
	if v.halted || v.stopped {
		return
	}
	p := v.params()
	rate := p.MgmtExitRate
	timer := v.mgmtTimer
	if reason == ExitMisc {
		rate = p.MiscExitRateDeleg
		if !v.node().Opts.DelegateTimer {
			rate = p.MiscExitRateNoDeleg
		}
		timer = v.miscTimer
	}
	timer.Arm(v.src.Exp(rateToMean(rate)))
	if v.inGuest && !v.idle {
		v.exitToHost(exitInfo{reason: reason})
	}
}

// delegatedVIPI is the Table 3 fast path: the monitor traps the sender's
// ICC_SGI1R write, routes the interrupt itself, and pokes the target's
// dedicated core with a physical IPI — no host involvement (§4.4).
func (v *VCPU) delegatedVIPI(target int) {
	n := v.node()
	p := v.params()
	n.Eng.Count(cVIPIDeleg)
	n.Eng.Trace().Emit(sim.TCIRQ, "core.vipi_delegated", int32(v.dcore), int64(target))
	n.Eng.Count(v.vm.met.vipiDelegated)
	if target < 0 || target >= len(v.vm.vcpus) {
		v.advance()
		return
	}
	// Sender-side trap and routing cost in the monitor.
	v.remWork = 0
	v.eng().After(p.RMMVIPIHandle, "vipi-delegated", v.bind(delegatedVIPIRouted, vcpuCall{peer: target}))
}

// delegatedVIPIRouted ends the monitor's trap of a delegated vIPI: the
// physical IPI leaves for the target's dedicated core (c.peer) and the
// sender continues.
func delegatedVIPIRouted(c vcpuCall) {
	v := c.v
	if v.stopped {
		return
	}
	tgt := v.vm.vcpus[c.peer]
	v.eng().After(v.node().Mach.IPILatency(), "vipi-wire", tgt.bind(delegatedVIPIArrived, vcpuCall{peer: v.idx}))
	v.advance() // sender continues immediately after the trap
}

func delegatedVIPIArrived(c vcpuCall) { c.v.receiveDelegatedVIPI(c.peer) }

// receiveDelegatedVIPI injects a vIPI on the target's dedicated core.
func (v *VCPU) receiveDelegatedVIPI(from int) {
	if v.stopped || v.halted {
		return
	}
	p := v.params()
	if !v.inGuest {
		// Between run calls: deliver on next entry.
		v.pendingInj = append(v.pendingInj, guest.Event{Kind: guest.EvVIPI, From: from})
		return
	}
	v.pauseGuestCompute()
	v.eng().After(p.RMMVIPIHandle+p.GuestIRQHandle, "vipi-deliver",
		v.bind(delegatedVIPIDelivered, vcpuCall{epoch: v.epoch, peer: from}))
}

// delegatedVIPIDelivered injects a delegated vIPI from c.peer once the
// monitor and guest handlers have run.
func delegatedVIPIDelivered(c vcpuCall) {
	v := c.v
	if v.stopped {
		return
	}
	ev := guest.Event{Kind: guest.EvVIPI, From: c.peer}
	if !v.inGuest || v.epoch != c.epoch {
		// The guest exited under us: deliver on its next entry so the
		// interrupt is never lost.
		v.pendingInj = append(v.pendingInj, ev)
		return
	}
	if v.deliverEvent(ev) {
		v.advance()
		return
	}
	v.resumeGuest()
}
