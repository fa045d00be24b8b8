package core

import (
	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// This file is the shared-core baseline (§5.1): a traditional
// non-confidential VM. Guest compute runs inside vCPU threads that
// time-share the host's online cores under the kernel scheduler; exits
// are handled on the same core by in-kernel KVM; device emulation runs on
// the VMM's floating I/O thread. The costs this path pays that the
// gapped path does not — same-core exit handling, host interference with
// guest microarchitectural state — and vice versa are exactly what the
// evaluation measures.

// startShared boots a shared-mode vCPU.
func (v *VCPU) startShared() {
	v.startTimers()
	v.advanceShared()
}

// advanceShared interprets the next program action on the vCPU thread.
func (v *VCPU) advanceShared() {
	if v.stopped || v.halted || v.waitIO || v.idle {
		return
	}
	n := v.node()
	p := v.params()
	if !v.hasCur {
		v.cur = v.vm.prog.Next(v.idx)
		v.hasCur = true
	}
	switch v.cur.Kind {
	case guest.ActCompute:
		work := sim.Duration(float64(v.cur.Work) * v.encFactor())
		v.hasCur = false
		n.Kern.Submit(v.thread, "guest", work, v.advanceSharedFn)

	case guest.ActIO:
		req := v.cur.Req
		v.hasCur = false
		if req.Dev == guest.SRIOVNet {
			n.Kern.Submit(v.thread, "vf-doorbell", 200, v.bind(sharedVFDoorbellDone, vcpuCall{req: req}))
			return
		}
		// virtio doorbell: same-core exit bouncing to the userspace VMM
		// (one local user/kernel round trip), then the request lands on
		// the VMM I/O thread.
		v.countExit(ExitMMIO)
		n.Kern.Submit(v.thread, "mmio-exit", p.KVMExitKernel+p.SharedMMIO, v.bind(sharedMMIOExitDone, vcpuCall{req: req}))

	case guest.ActVIPI:
		target := v.cur.Target
		v.hasCur = false
		if target >= 0 && target < len(v.vm.vipiSentAt) {
			v.vm.vipiSentAt[target] = v.eng().Now()
		}
		v.countExit(ExitVIPI)
		// Sender's trap is handled by the in-kernel vGIC fast path on
		// the same core (Table 3's 3.85 µs), then a physical IPI kicks
		// the target core.
		n.Kern.Submit(v.thread, "vipi-exit", p.SharedVGIC+150, v.bind(sharedVIPIExitDone, vcpuCall{peer: target}))

	case guest.ActWFI:
		v.hasCur = false
		v.idle = true
		// The vCPU thread blocks in the kernel (WFI trap); nothing to do.

	case guest.ActHalt:
		v.hasCur = false
		v.halted = true
		v.stopTimers()
	}
}

// sharedInject delivers an event to a shared-core guest: in-kernel vGIC
// injection plus the guest's handler, charged on the vCPU thread.
func (v *VCPU) sharedInject(ev guest.Event) {
	if v.stopped || v.halted {
		return
	}
	p := v.params()
	v.node().Kern.Submit(v.thread, "inject", p.SharedVGIC+p.GuestIRQHandle, v.bind(sharedInjectDone, vcpuCall{ev: ev}))
}

func sharedInjectDone(c vcpuCall) {
	if c.v.deliverEvent(c.ev) {
		c.v.advanceShared()
	}
}

// sharedVFDoorbellDone follows the SR-IOV doorbell write on the vCPU
// thread: the request goes straight to the virtual function.
func sharedVFDoorbellDone(c vcpuCall) {
	v := c.v
	v.vm.VMM.VF.Submit(v.idx, c.req)
	if c.req.Sync {
		v.waitIO = true
	} else {
		v.advanceShared()
	}
}

// sharedMMIOExitDone hands a virtio request to the VMM I/O thread after
// the same-core exit.
func sharedMMIOExitDone(c vcpuCall) {
	v := c.v
	v.vm.VMM.Submit(v.idx, c.req)
	if c.req.Sync {
		v.waitIO = true
	} else {
		v.advanceShared()
	}
}

// sharedVIPIExitDone ends the sender's vGIC trap: a physical IPI kicks
// the target vCPU (c.peer) and the sender continues.
func sharedVIPIExitDone(c vcpuCall) {
	v := c.v
	if c.peer >= 0 && c.peer < len(v.vm.vcpus) {
		tgt := v.vm.vcpus[c.peer]
		v.eng().After(v.node().Mach.IPILatency(), "vipi-wire", tgt.bind(sharedVIPIArrived, vcpuCall{peer: v.idx}))
	}
	v.advanceShared()
}

func sharedVIPIArrived(c vcpuCall) {
	c.v.sharedInject(guest.Event{Kind: guest.EvVIPI, From: c.peer})
}

// onTickShared charges one timer tick on the shared path: the exit and
// vGIC work happen on whatever core the vCPU occupies, stealing guest
// time, polluting the guest's microarchitectural state, and forcing a
// partial re-warm (§2.3's interference cost).
func (v *VCPU) onTickShared() {
	n := v.node()
	p := v.params()
	v.vm.inc(&v.vm.met.ticks, "", "ticks")
	v.countExit(ExitTimer)

	base := p.KVMExitKernel + p.SharedVGIC + p.GuestIRQHandle + p.HostNoise

	if n.Kern.Running(v.thread.Core()) == v.thread {
		core := n.Mach.Core(v.thread.Core())
		warmth := core.Uarch.Warmth(v.vm.domain)
		// The re-warm penalty scales with the working set at risk: a
		// cache-hungry workload pays more for the same interference.
		rewarm := sim.Duration((1 - warmth) * v.footprint() / p.GuestFootprint * float64(p.RewarmCost))
		// The host's handler runs on the guest's core, evicting state.
		core.RecordExecution(uarch.DomainHost, 0.08, 0)
		n.Kern.StealCPU(v.thread.Core(), base+rewarm, nil)
		return
	}
	// vCPU not on a core right now (queued or in WFI): charge the
	// handler as a work item, which also wakes an idle guest.
	n.Kern.Submit(v.thread, "tick", base, v.sharedTickFn)
}

// sharedTick runs a timer tick's guest handler on the vCPU thread,
// waking an idle guest.
func (v *VCPU) sharedTick() {
	v.vm.prog.Deliver(v.idx, guest.Event{Kind: guest.EvTimer})
	if v.idle {
		v.idle = false
		v.advanceShared()
	}
}
