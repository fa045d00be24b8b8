package core

import (
	"testing"

	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

func TestSuspendResumeRoundTrip(t *testing.T) {
	n := NewNode(4, GappedDefault(), DefaultParams(), 13)
	cm := guest.NewCoreMark(2, 100*sim.Millisecond)
	vm, err := n.NewVM("vm0", 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(20 * sim.Millisecond)

	if err := n.SuspendVM(vm); err != nil {
		t.Fatal(err)
	}
	if !vm.Suspended() {
		t.Fatal("not marked suspended")
	}
	// Give the kicks time to land; then verify no progress while parked.
	n.Eng.RunFor(5 * sim.Millisecond)
	before := progress(cm)
	n.Eng.RunFor(50 * sim.Millisecond)
	after := progress(cm)
	if after != before {
		t.Fatalf("suspended VM made progress: %v -> %v", before, after)
	}
	// Cores stay dedicated and bound while parked: the host cannot
	// repossess a suspended CVM's cores.
	for _, c := range vm.GuestCores() {
		if !n.Mon.IsDedicated(c) {
			t.Fatalf("core %d no longer dedicated during suspend", c)
		}
		if err := n.Mon.ReclaimCore(c); err == nil {
			t.Fatal("host reclaimed a suspended CVM's core")
		}
	}

	// Double suspend / bogus resume errors.
	if err := n.SuspendVM(vm); err != ErrAlreadySuspended {
		t.Fatalf("double suspend: %v", err)
	}

	if err := n.ResumeVM(vm); err != nil {
		t.Fatal(err)
	}
	if err := n.ResumeVM(vm); err != ErrNotSuspended {
		t.Fatalf("double resume: %v", err)
	}
	n.RunUntilAllHalted(10 * sim.Second)
	if !cm.Done() {
		t.Fatal("workload did not finish after resume")
	}
	if count(n, "vm0.suspend") != 1 || count(n, "vm0.resume") != 1 {
		t.Fatal("suspend/resume accounting")
	}
}

func progress(cm *guest.CoreMark) float64 {
	return cm.Score(sim.Second) // any fixed divisor: proportional to work done
}

func TestSuspendDeliversPendingInterruptsOnResume(t *testing.T) {
	// A device completion that arrives while the VM is parked must be
	// delivered when it resumes — not lost.
	n := NewNode(3, GappedDefault(), DefaultParams(), 13)
	z := guest.NewIOzone(256<<10, true, 512<<10) // 2 records
	vm, err := n.NewVM("vm0", 1, z)
	if err != nil {
		t.Fatal(err)
	}
	// Let the first sync request get submitted, then suspend before the
	// (media-latency-delayed) completion arrives.
	n.Eng.RunFor(2*sim.Millisecond + 30*sim.Microsecond)
	if err := n.SuspendVM(vm); err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(20 * sim.Millisecond) // completion fires while parked
	if z.Moved() == 512<<10 {
		t.Skip("timing: I/O finished before suspend took effect")
	}
	if err := n.ResumeVM(vm); err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(10 * sim.Second)
	if z.Moved() != 512<<10 {
		t.Fatalf("I/O lost across suspend: moved %d", z.Moved())
	}
}

func TestSuspendSharedModeRefused(t *testing.T) {
	n := NewNode(3, Baseline(), DefaultParams(), 13)
	vm, err := n.NewVM("vm0", 1, guest.NewCoreMark(1, sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SuspendVM(vm); err != ErrNotGapped {
		t.Fatalf("shared suspend: %v", err)
	}
	n.RunUntilAllHalted(sim.Second)
}

func TestSuspendedContextStaysSealed(t *testing.T) {
	// While parked, the dedicated core holds the guest's wiped-or-own
	// state only; the host never gains residue from parking a CVM.
	n := NewNode(4, GappedDefault(), DefaultParams(), 13)
	cm := guest.NewCoreMark(2, 100*sim.Millisecond)
	vm, err := n.NewVM("vm0", 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(20 * sim.Millisecond)
	if err := n.SuspendVM(vm); err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(20 * sim.Millisecond)
	for _, c := range vm.GuestCores() {
		for _, d := range n.Mach.Core(c).DomainsObserved() {
			if d == uarch.DomainHost {
				// Host must not have executed after dedication.
				log := n.Mach.Core(c).ExecLog()
				sawGuest := false
				for _, r := range log {
					if r.Domain == vm.Domain() {
						sawGuest = true
					}
					if sawGuest && r.Domain == uarch.DomainHost {
						t.Fatalf("host ran on parked CVM core %d", c)
					}
				}
			}
		}
	}
	n.ResumeVM(vm)
	n.RunUntilAllHalted(10 * sim.Second)
}
