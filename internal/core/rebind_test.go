package core

import (
	"testing"

	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

func TestLiveRebindMovesRunningVCPU(t *testing.T) {
	n := NewNode(6, GappedDefault(), DefaultParams(), 3)
	cm := guest.NewCoreMark(2, 200*sim.Millisecond)
	vm, err := n.NewVM("vm0", 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(20 * sim.Millisecond) // VM up and computing

	v := vm.VCPUs()[0]
	oldCore := v.DedicatedCore()
	target := hw.CoreID(4) // free core
	if err := n.RebindVCPU(vm, 0, target); err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(30 * sim.Millisecond)

	if v.DedicatedCore() != target {
		t.Fatalf("vcpu still on core %d, want %d", v.DedicatedCore(), target)
	}
	if count(n, "vm0.rebind.ok") != 1 {
		t.Fatal("rebind not recorded")
	}
	// The vacated core returned to the host...
	if n.Kern.IsOffline(oldCore) {
		t.Fatal("old core still offline")
	}
	if n.Mon.IsDedicated(oldCore) {
		t.Fatal("old core still dedicated")
	}
	// ...with its microarchitectural state wiped (no guest residue).
	if res := n.Mach.Core(oldCore).Uarch.ResidueFor(uarch.DomainHost); len(res) != 0 {
		t.Fatalf("old core not wiped: residue in %d structures", len(res))
	}
	// The guest keeps making progress on the new core.
	n.RunUntilAllHalted(10 * sim.Second)
	if !cm.Done() {
		t.Fatal("workload did not finish after rebind")
	}
	// Monitor bookkeeping is consistent.
	if n.Mon.BoundRec(target) != v.rec {
		t.Fatal("binding table wrong")
	}
}

func TestRebindValidation(t *testing.T) {
	n := NewNode(6, GappedDefault(), DefaultParams(), 3)
	vm, err := n.NewVM("vm0", 2, guest.NewCoreMark(2, 100*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(10 * sim.Millisecond)

	if err := n.RebindVCPU(vm, 9, 4); err != ErrBadVCPU {
		t.Fatalf("bad vcpu: %v", err)
	}
	// Target occupied by the other vCPU: planner refuses (not free).
	if err := n.RebindVCPU(vm, 0, vm.VCPUs()[1].DedicatedCore()); err == nil {
		t.Fatal("rebind onto an occupied core accepted")
	}
	// No-op rebind is fine.
	if err := n.RebindVCPU(vm, 0, vm.VCPUs()[0].DedicatedCore()); err != nil {
		t.Fatalf("no-op rebind: %v", err)
	}
	// Two concurrent rebinds of one vCPU refused.
	if err := n.RebindVCPU(vm, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := n.RebindVCPU(vm, 0, 5); err != ErrRebindBusy {
		t.Fatalf("concurrent rebind: %v", err)
	}
	n.RunUntilAllHalted(10 * sim.Second)
}

func TestRebindSharedModeRefused(t *testing.T) {
	n := NewNode(4, Baseline(), DefaultParams(), 3)
	vm, err := n.NewVM("vm0", 2, guest.NewCoreMark(2, sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.RebindVCPU(vm, 0, 3); err != ErrNotGapped {
		t.Fatalf("shared-mode rebind: %v", err)
	}
	n.RunUntilAllHalted(sim.Second)
}

func TestRebindPreservesCoreGapInvariant(t *testing.T) {
	// After a rebind, the domain records must still show no foreign guest
	// domain ever shared a core with the victim while it was bound.
	n := NewNode(8, GappedDefault(), DefaultParams(), 3)
	cmA := guest.NewCoreMark(2, 150*sim.Millisecond)
	vmA, err := n.NewVM("vmA", 2, cmA)
	if err != nil {
		t.Fatal(err)
	}
	cmB := guest.NewCoreMark(2, 150*sim.Millisecond)
	vmB, err := n.NewVM("vmB", 2, cmB)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(20 * sim.Millisecond)
	if err := n.RebindVCPU(vmA, 0, 6); err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(20 * sim.Second)
	if !cmA.Done() || !cmB.Done() {
		t.Fatal("workloads incomplete")
	}
	// No core's domain record may contain both guests.
	for _, c := range n.Mach.Cores() {
		sawA, sawB := false, false
		for _, r := range c.DomainsObserved() {
			if r.Domain == vmA.Domain() {
				sawA = true
			}
			if r.Domain == vmB.Domain() {
				sawB = true
			}
		}
		if sawA && sawB {
			t.Fatalf("core %d executed both guests", c.ID())
		}
	}
}
