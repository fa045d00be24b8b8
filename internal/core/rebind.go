package core

import (
	"errors"
	"fmt"

	"coregap/internal/hw"
)

// Live vCPU-to-core rebinding (§3's future-work extension): the planner
// may, at coarse time scales, move a running vCPU to a different
// dedicated core — for example to defragment the free pool. The host
// *requests* the move; the monitor validates it, wipes the old core, and
// re-establishes the binding; the guest observes nothing but one extra
// exit.

// Rebind errors.
var (
	ErrNotGapped  = errors.New("core: rebinding requires core-gapped mode")
	ErrBadVCPU    = errors.New("core: no such vcpu")
	ErrRebindBusy = errors.New("core: a rebind is already in flight")
)

// RebindVCPU migrates vm's vcpu to the given free core. The target core
// is hotplugged out of the host and dedicated; after the migration the
// old core is wiped by the monitor, reclaimed, and returned to the host
// scheduler. The actual switch happens at the vCPU's next exit (forced
// promptly via the host-kick doorbell).
func (n *Node) RebindVCPU(vm *VM, vcpu int, to hw.CoreID) error {
	if n.Opts.Mode != Gapped {
		return ErrNotGapped
	}
	if vcpu < 0 || vcpu >= len(vm.vcpus) {
		return ErrBadVCPU
	}
	v := vm.vcpus[vcpu]
	if v.rebindInFlight {
		return ErrRebindBusy
	}
	if to == v.dcore {
		return nil
	}
	// Reserve the target with the planner (fails unless free).
	if err := n.Plan.BeginRebind(vm.name, to); err != nil {
		return err
	}
	v.rebindInFlight = true

	// Take the target core from the host, as at VM start (§4.2).
	err := n.Kern.OfflineCore(to, func() {
		n.Mon.DedicateCore(to)
		v.pendingRebind = to
		// Force a prompt exit so the rebind happens at coarse-but-bounded
		// latency; if the vCPU is between run calls the rebind rides the
		// next re-entry.
		v.requestKickForRebind()
	})
	if err != nil {
		v.rebindInFlight = false
		n.Plan.AbortRebind(vm.name, to)
		return fmt.Errorf("core: hotplug of rebind target %d: %w", to, err)
	}
	return nil
}

// requestKickForRebind doorbells the dedicated core like an injection
// kick, without queueing any event.
func (v *VCPU) requestKickForRebind() {
	n := v.node()
	n.Kern.Submit(v.thread, "rebind-kick", v.params().InjectKick, func() {
		if v.stopped || v.halted {
			return
		}
		if v.inGuest {
			n.Mach.SendIPI(v.vm.assign.hostCore, v.dcore, hw.IPIHostToRMM)
		}
		// Otherwise the vCPU is mid-exit; applyPendingRebind runs on the
		// next postRunCall either way.
	})
}

// applyPendingRebind performs the monitor-validated migration; called
// from the host side just before re-entering the guest.
func (v *VCPU) applyPendingRebind() {
	to := v.pendingRebind
	if to == hw.NoCore {
		return
	}
	v.pendingRebind = hw.NoCore
	v.rebindInFlight = false
	n := v.node()
	if err := n.Mon.RebindRec(v.rec, to); err != nil {
		// Validation failed (e.g. the VM is being torn down): return the
		// target core to the host rather than leaking it.
		n.Mon.ReclaimCore(to)
		n.Kern.OnlineCore(to)
		n.Plan.AbortRebind(v.vm.name, to)
		n.Eng.Count(v.vm.met.rebindFailed)
		return
	}
	old := v.dcore
	v.dcore = to
	v.installRMMCoreHandler()
	// Update the VM's assignment record.
	for i, c := range v.vm.assign.guestCores {
		if c == old {
			v.vm.assign.guestCores[i] = to
		}
	}
	// The old core is already wiped by the monitor; reclaim it and give
	// it back to the host scheduler and the planner's free pool.
	if err := n.Mon.ReclaimCore(old); err == nil {
		n.Kern.OnlineCore(old)
	}
	n.Plan.CompleteRebind(v.vm.name, old)
	n.Eng.Count(v.vm.met.rebindOK)
}
