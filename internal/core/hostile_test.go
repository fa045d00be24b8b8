package core

import (
	"slices"
	"testing"
	"testing/quick"

	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/smc"
	"coregap/internal/uarch"
)

// These tests play the malicious hypervisor of the threat model (§2.4):
// the host controls resource allocation and scheduling, and tries every
// lever it legitimately holds to break the §3 isolation properties.

// smcCall issues one raw RMI call on the node's monitor, as a
// compromised host kernel would, and reports the returned status.
func smcCall(n *Node, fid smc.FID, args ...uint64) smc.Status {
	c := smc.Call{FID: fid}
	copy(c.Args[:], args)
	return n.Mon.Handle(c).Status
}

// TestGappedBootSMCCalls: a gapped boot of v vCPUs reaches the monitor
// only through its SMC entry, in exactly 18 + 3v calls — two root
// granules, realm create, three RTT levels (granule + create each), four
// boot pages (granule + data create each) and activation, then per vCPU
// a REC granule, REC create and core dedication. Forged handles, and the
// VM's own handles once StopVM has destroyed the realm, return error
// statuses.
func TestGappedBootSMCCalls(t *testing.T) {
	for vcpus := 1; vcpus <= 3; vcpus++ {
		n := NewNode(8, GappedDefault(), DefaultParams(), 17)
		vm, err := n.NewVM("vm0", vcpus, guest.NewCoreMark(vcpus, 50*sim.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		n.Eng.RunFor(10 * sim.Millisecond) // the hotplug handoffs dedicate
		if got, want := count(n, "rmm.smc_calls"), uint64(18+3*vcpus); got != want {
			t.Fatalf("%d vCPUs: boot made %d SMC calls, want %d", vcpus, got, want)
		}

		rd, rec := uint64(vm.rd), uint64(vm.vcpus[0].recPA)
		core := uint64(vm.GuestCores()[0])
		for _, c := range []struct {
			name string
			fid  smc.FID
			args []uint64
			want smc.Status
		}{
			{"unknown rd", smc.RMIRealmActivate, []uint64{0xdead000}, smc.StatusErrorRealm},
			{"rec as rd", smc.RMIRecCreate, []uint64{rec, 0}, smc.StatusErrorRealm},
			{"unknown rec", smc.RMIRecEnter, []uint64{0xdead000, core}, smc.StatusErrorRec},
			{"rd as rec", smc.RMIRecEnter, []uint64{rd, core}, smc.StatusErrorRec},
			{"rd as rebind rec", smc.RMICoreRebind, []uint64{rd, core}, smc.StatusErrorRec},
			{"double activate", smc.RMIRealmActivate, []uint64{rd}, smc.StatusErrorRealm},
		} {
			if got := smcCall(n, c.fid, c.args...); got != c.want {
				t.Errorf("%d vCPUs, %s: %v, want %v", vcpus, c.name, got, c.want)
			}
		}

		if err := n.StopVM(vm); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			fid  smc.FID
			args []uint64
			want smc.Status
		}{
			{"stale rd", smc.RMIRealmDestroy, []uint64{rd}, smc.StatusErrorRealm},
			{"stale rd data", smc.RMIDataCreate, []uint64{rd, 0x9000_0000, 0}, smc.StatusErrorRealm},
			{"stale rec enter", smc.RMIRecEnter, []uint64{rec, core}, smc.StatusErrorRec},
			{"stale rec destroy", smc.RMIRecDestroy, []uint64{rec}, smc.StatusErrorRec},
		} {
			if got := smcCall(n, c.fid, c.args...); got != c.want {
				t.Errorf("%d vCPUs, %s: %v, want %v", vcpus, c.name, got, c.want)
			}
		}
	}
}

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
	aRec := uint64(vmA.vcpus[0].recPA)
	for _, core := range vmV.GuestCores() {
		if st := smcCall(n, smc.RMIRecEnter, aRec, uint64(core)); st != smc.StatusErrorCoreGap {
			t.Fatalf("attacker vCPU on victim core %d: %v", core, st)
		}
	}
	// And the victim's REC cannot be migrated onto the attacker's core.
	vRec := uint64(vmV.vcpus[0].recPA)
	if st := smcCall(n, smc.RMIRecEnter, vRec, uint64(vmA.GuestCores()[0])); st != smc.StatusErrorCoreGap {
		t.Fatalf("victim vCPU migration onto attacker core: %v", st)
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
		if st := smcCall(n, smc.RMICoreReclaim, uint64(c)); st != smc.StatusErrorCoreGap {
			t.Fatalf("reclaim of live CVM core %d: %v", c, st)
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
	aRec := uint64(vmA.vcpus[0].recPA)
	if st := smcCall(n, smc.RMICoreRebind, aRec, uint64(vmV.GuestCores()[0])); st != smc.StatusErrorCoreGap {
		t.Fatalf("monitor rebind onto bound core: %v", st)
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
