package core

import (
	"errors"

	"coregap/internal/hw"
)

// Host-initiated suspend/resume — one of the VM-abstraction capabilities
// the paper credits core gapping with retaining, unlike statically-sliced
// bare-metal designs (§7: core-gapped VMs "can support dynamic memory
// allocation and deallocation, virtual I/O, host-initiated
// suspend/resume, and live migration").
//
// Suspend parks every vCPU at its next exit: the monitor keeps the cores
// dedicated and the bindings intact (the host may stop *running* a CVM
// whenever it likes — denial of service is its prerogative — but it can
// never repossess the cores or observe the parked context). Resume
// simply issues fresh run calls; interrupts that arrived while parked
// ride in on the resumed entries.

// Suspend errors.
var (
	ErrAlreadySuspended = errors.New("core: VM already suspended")
	ErrNotSuspended     = errors.New("core: VM not suspended")
)

// SuspendVM parks a gapped VM. The call initiates the suspension; each
// vCPU parks at its next exit (forced promptly via the kick doorbell).
func (n *Node) SuspendVM(vm *VM) error {
	if n.Opts.Mode != Gapped {
		return ErrNotGapped
	}
	if vm.suspended {
		return ErrAlreadySuspended
	}
	vm.suspended = true
	n.Eng.Count(vm.met.suspend)
	for _, v := range vm.vcpus {
		v := v
		if v.halted || v.stopped {
			continue
		}
		n.Kern.Submit(v.thread, "suspend-kick", n.P.InjectKick, func() {
			if v.inGuest {
				n.Mach.SendIPI(vm.assign.hostCore, v.dcore, hw.IPIHostToRMM)
			}
		})
	}
	return nil
}

// ResumeVM un-parks a suspended VM: every parked vCPU gets a fresh run
// call carrying whatever interrupts accumulated while it slept.
func (n *Node) ResumeVM(vm *VM) error {
	if n.Opts.Mode != Gapped {
		return ErrNotGapped
	}
	if !vm.suspended {
		return ErrNotSuspended
	}
	vm.suspended = false
	n.Eng.Count(vm.met.resume)
	for _, v := range vm.vcpus {
		if v.halted || v.stopped || !v.parked {
			continue
		}
		v.parked = false
		v.postRunCall()
	}
	return nil
}

// Suspended reports whether the VM is parked.
func (vm *VM) Suspended() bool { return vm.suspended }
