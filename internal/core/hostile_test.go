package core

import (
	"slices"
	"testing"
	"testing/quick"

	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/rmm"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// These tests play the malicious hypervisor of the threat model (§2.4):
// the host controls resource allocation and scheduling, and tries every
// lever it legitimately holds to break the §3 isolation properties.

func TestHostileCoSchedulingAttack(t *testing.T) {
	// The §3 attack: run a victim CVM, then try to dispatch an
	// attacker's vCPU onto the victim's dedicated core via the monitor.
	n := NewNode(6, GappedDefault(), DefaultParams(), 17)
	victim := guest.NewCoreMark(2, 50*sim.Millisecond)
	vmV, err := n.NewVM("victim", 2, victim)
	if err != nil {
		t.Fatal(err)
	}
	attacker := guest.NewCoreMark(1, 50*sim.Millisecond)
	vmA, err := n.NewVM("attacker", 1, attacker)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(10 * sim.Millisecond)

	// The "hypervisor" asks the monitor directly (as a compromised KVM
	// would): every dispatch of the attacker's REC onto a victim core
	// must fail.
	aRec := vmA.Realm().RECs()[0]
	for _, core := range vmV.GuestCores() {
		if err := n.Mon.CheckEnter(aRec, core); err == nil {
			t.Fatalf("monitor allowed attacker vCPU on victim core %d", core)
		}
	}
	// And the victim's REC cannot be migrated onto the attacker's core.
	vRec := vmV.Realm().RECs()[0]
	if err := n.Mon.CheckEnter(vRec, vmA.GuestCores()[0]); err == nil {
		t.Fatal("monitor allowed victim vCPU migration onto attacker core")
	}
	n.RunUntilAllHalted(10 * sim.Second)
}

func TestHostileKickStorm(t *testing.T) {
	// The host can always interrupt a CVM "at inopportune moments"
	// (§1) — here it doorbells the guest thousands of times. The guest
	// must slow down (DoS is out of scope) but never lose work, leak, or
	// wedge the protocol.
	n := NewNode(3, GappedDefault(), DefaultParams(), 17)
	cm := guest.NewCoreMark(1, 30*sim.Millisecond)
	vm, err := n.NewVM("vm0", 1, cm)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.VCPUs()[0]
	storm := sim.NewTicker(n.Eng, "storm", 50*sim.Microsecond, func() {
		if !v.Halted() {
			v.hostRequestInjection(guest.Event{Kind: guest.EvTimer})
		}
	})
	n.Eng.After(5*sim.Millisecond, "start-storm", storm.Start)
	end := n.RunUntilAllHalted(10 * sim.Second)
	storm.Stop()
	if !cm.Done() {
		t.Fatalf("kick storm wedged the guest (at %v)\n%s", end, n.Met.String())
	}
	if count(n, "vm0.exits.kick") < 100 {
		t.Fatal("storm did not actually force exits")
	}
	// The guest paid in time, not in isolation: only monitor+guest on
	// its core after dedication.
	assertCoreGap(t, n, vm)
}

func TestHostileReclaimAndDestroyRaces(t *testing.T) {
	n := NewNode(4, GappedDefault(), DefaultParams(), 17)
	cm := guest.NewCoreMark(2, 40*sim.Millisecond)
	vm, err := n.NewVM("vm0", 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(10 * sim.Millisecond)

	// Reclaim attempts while the CVM runs: all refused.
	for _, c := range vm.GuestCores() {
		if err := n.Mon.ReclaimCore(c); err == nil {
			t.Fatalf("reclaimed live CVM core %d", c)
		}
	}
	// Destroying the realm mid-run is the host's right (DoS); afterwards
	// the cores are reclaimable and carry no guest residue.
	if err := n.StopVM(vm); err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(10 * sim.Millisecond)
	for _, c := range vm.GuestCores() {
		if n.Mon.IsDedicated(c) {
			t.Fatalf("core %d still dedicated after destroy", c)
		}
	}
}

func TestHostileRebindToVictimCore(t *testing.T) {
	// The host cannot use the rebinding extension to co-locate domains:
	// the planner refuses occupied targets, and even a direct monitor
	// call refuses a core bound to another REC.
	n := NewNode(6, GappedDefault(), DefaultParams(), 17)
	vmV, _ := n.NewVM("victim", 2, guest.NewCoreMark(2, 50*sim.Millisecond))
	vmA, _ := n.NewVM("attacker", 1, guest.NewCoreMark(1, 50*sim.Millisecond))
	n.Eng.RunFor(10 * sim.Millisecond)

	if err := n.RebindVCPU(vmA, 0, vmV.GuestCores()[0]); err == nil {
		t.Fatal("planner allowed rebind onto a victim core")
	}
	aRec := vmA.Realm().RECs()[0]
	if err := n.Mon.RebindRec(aRec, vmV.GuestCores()[0]); err != rmm.ErrCoreInUse {
		t.Fatalf("monitor rebind onto bound core: %v", err)
	}
	n.RunUntilAllHalted(10 * sim.Second)
}

// assertCoreGap checks property (b) of §3 on every dedicated core.
func assertCoreGap(t *testing.T, n *Node, vm *VM) {
	t.Helper()
	for _, c := range vm.GuestCores() {
		runs := n.Mach.Core(c).DomainsObserved()
		i := slices.IndexFunc(runs, func(r hw.DomainRun) bool { return r.Domain == vm.Domain() })
		if i < 0 {
			continue
		}
		for _, r := range runs {
			if r.Domain != vm.Domain() && r.Domain != uarch.DomainMonitor && r.Last > runs[i].First {
				t.Fatalf("domain %v ran on dedicated core %d after guest start", r.Domain, c)
			}
		}
	}
}

// TestCoreGapInvariantProperty runs randomized multi-VM workloads and
// checks the isolation invariant afterwards: no two guest domains ever
// appear in the same core's domain record, over the whole run.
func TestCoreGapInvariantProperty(t *testing.T) {
	prop := func(seed uint16, sizesRaw [3]uint8) bool {
		n := NewNode(10, GappedDefault(), DefaultParams(), uint64(seed)+1)
		var vms []*VM
		for i, raw := range sizesRaw {
			size := int(raw)%3 + 1
			cm := guest.NewCoreMark(size, 20*sim.Millisecond)
			vm, err := n.NewVM(names[i], size, cm)
			if err != nil {
				continue // admission control may legitimately refuse
			}
			vms = append(vms, vm)
		}
		n.RunUntilAllHalted(10 * sim.Second)
		for _, c := range n.Mach.Cores() {
			guests := 0
			for _, r := range c.DomainsObserved() {
				if r.Domain.IsGuest() {
					guests++
				}
			}
			if guests > 1 {
				return false
			}
		}
		_ = vms
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

var names = []string{"alpha", "beta", "gamma"}

func TestHostileOversubscription(t *testing.T) {
	// Admission control bounds total dedicated cores; the host cannot
	// conjure capacity by asking repeatedly.
	n := NewNode(8, GappedDefault(), DefaultParams(), 17)
	admitted := 0
	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		if _, err := n.NewVM(name, 2, guest.NewCoreMark(2, sim.Millisecond)); err == nil {
			admitted++
		}
	}
	if admitted != 3 { // 7 free cores / 2 per VM = 3 VMs
		t.Fatalf("admitted %d VMs on 7 free cores", admitted)
	}
	n.RunUntilAllHalted(10 * sim.Second)
	// Host never lost its own core.
	if n.Kern.OnlineCount() < 1 {
		t.Fatal("host has no cores")
	}
	if !contains(n.Mach.OnlineCores(), hw.CoreID(0)) {
		t.Fatal("host core 0 taken")
	}
}

func contains(ids []hw.CoreID, id hw.CoreID) bool {
	for _, c := range ids {
		if c == id {
			return true
		}
	}
	return false
}
