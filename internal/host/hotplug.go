package host

import (
	"errors"

	"coregap/internal/hw"
	"coregap/internal/sim"
)

// Hotplug errors.
var (
	ErrCoreOffline   = errors.New("host: core already offline")
	ErrCoreOnline    = errors.New("host: core already online")
	ErrLastCore      = errors.New("host: cannot offline the last online core")
	ErrUnmanagedCore = errors.New("host: core not managed by this kernel")
)

// HotplugCost is the modelled duration of the hotplug shutdown procedure
// (task migration, IRQ retargeting, teardown callbacks). The operation is
// rare — once per CVM start/stop — so only its order of magnitude
// matters; Linux CPU offline takes on the order of milliseconds.
const HotplugCost = 2 * sim.Millisecond

// OfflineCore runs the Linux CPU-hotplug shutdown path on a core (§4.2):
// migrate every task away, retarget interrupts, mark the core unusable —
// and then, instead of halting it, invoke handoff, which the core-gapping
// host uses to transfer the core to the security monitor. The paper's
// only other change, keeping the frequency governor from downclocking the
// core, is implicit: the modelled core keeps full speed.
//
// With a nil handoff the core simply goes Offline (stock Linux).
func (k *Kernel) OfflineCore(id hw.CoreID, handoff func()) error {
	cs, ok := k.cores[id]
	if !ok {
		return ErrUnmanagedCore
	}
	if cs.offline {
		return ErrCoreOffline
	}
	online := 0
	for _, s := range k.cores {
		if !s.offline {
			online++
		}
	}
	if online <= 1 {
		return ErrLastCore
	}

	cs.offline = true
	k.eng.Count(cHotplugOff)
	k.eng.Trace().Span(sim.TCEngine, "host.hotplug_offline", int32(id), HotplugCost, 0)

	// Stop the running thread and collect every queued thread.
	var displaced []*Thread
	if cs.cur != nil {
		t := k.takeCurrent(cs)
		t.state = Runnable
		displaced = append(displaced, t)
	}
	displaced = append(displaced, cs.fifoQ...)
	displaced = append(displaced, cs.normQ...)
	cs.fifoQ = nil
	cs.normQ = nil

	// Re-enqueue displaced tasks elsewhere.
	for _, t := range displaced {
		t.state = Blocked // wake() requires Blocked→Runnable
		k.wake(t)
	}

	// The shutdown procedure itself takes time; the final action is
	// either halting the core or handing it to the monitor.
	cs.hotplug = k.eng.After(HotplugCost, "hotplug-off", func() {
		if handoff != nil {
			k.mach.SetPower(id, hw.DedicatedRealm)
			handoff()
		} else {
			k.mach.SetPower(id, hw.Offline)
		}
	})
	return nil
}

// OnlineCore brings a core back under host scheduler control (after the
// monitor returns it, or after a plain hotplug-on).
func (k *Kernel) OnlineCore(id hw.CoreID) error {
	cs, ok := k.cores[id]
	if !ok {
		return ErrUnmanagedCore
	}
	if !cs.offline {
		return ErrCoreOnline
	}
	cs.offline = false
	// An online that overtakes a shutdown still in progress aborts it:
	// the core must not halt, or pass to the monitor, under the host.
	k.eng.Cancel(cs.hotplug)
	k.eng.Count(cHotplugOn)
	k.eng.Trace().Emit(sim.TCEngine, "host.hotplug_online", int32(id), 0)
	k.mach.SetPower(id, hw.Online)
	// The host owns the core's interrupt delivery again.
	k.mach.Core(id).SetIRQHandler(func(from hw.CoreID, irq hw.IRQ) { k.handleIRQ(id, from, irq) })
	k.dispatch(cs)
	return nil
}

// OnlineCount reports how many cores the scheduler currently uses.
func (k *Kernel) OnlineCount() int {
	n := 0
	for _, cs := range k.cores {
		if !cs.offline {
			n++
		}
	}
	return n
}

// IsOffline reports whether the kernel considers the core offline.
func (k *Kernel) IsOffline(id hw.CoreID) bool {
	cs, ok := k.cores[id]
	return ok && cs.offline
}
