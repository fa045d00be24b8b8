package core

import (
	"testing"

	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// count reads a counter of n's engine bank by name.
func count(n *Node, name string) uint64 {
	return n.Eng.CounterValue(sim.DefineCounter(name))
}

// TestMachineCountersEqualPerVMSums: each machine-wide core.* count
// with a per-VM twin is the sum of the twin over the node's VMs. vm0
// takes delegated timer ticks (CoreMark), vm1 delegated vIPIs (IPI
// ping-pong), and both exit when they halt.
func TestMachineCountersEqualPerVMSums(t *testing.T) {
	n := NewNode(6, GappedDefault(), DefaultParams(), 3)
	if _, err := n.NewVM("vm0", 2, guest.NewCoreMark(2, 20*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.NewVM("vm1", 2, guest.NewIPIBench(50)); err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(5 * sim.Second)
	for machine, perVM := range map[string]string{
		"core.vcpu_exits":      "exits.total",
		"core.vipi_delegated":  "vipi.delegated",
		"core.ticks_delegated": "ticks.delegated",
	} {
		vm0, vm1 := count(n, "vm0."+perVM), count(n, "vm1."+perVM)
		if vm0+vm1 == 0 || count(n, machine) != vm0+vm1 {
			t.Errorf("%s = %d, want the nonzero sum of vm0/vm1 %s: %d + %d", machine, count(n, machine), perVM, vm0, vm1)
		}
	}
}

func TestSharedCoreMarkCompletes(t *testing.T) {
	n := NewNode(4, Baseline(), DefaultParams(), 1)
	cm := guest.NewCoreMark(4, 50*sim.Millisecond)
	vm, err := n.NewVM("vm0", 4, cm)
	if err != nil {
		t.Fatal(err)
	}
	end := n.RunUntilAllHalted(5 * sim.Second)
	if !cm.Done() {
		t.Fatalf("coremark not done at %v; exits=%s", end, n.Met.String())
	}
	// 50ms work per vCPU on 4 dedicated-ish cores: wall ≈ 50ms + overhead.
	if end < sim.Time(50*sim.Millisecond) || end > sim.Time(60*sim.Millisecond) {
		t.Fatalf("completed at %v, want ~50-60ms", end)
	}
	if vm.VCPUs()[0].Halted() != true {
		t.Fatal("vcpu not halted")
	}
	// Baseline performed same-core timer exits.
	if count(n, "vm0.exits.timer") == 0 {
		t.Fatal("no timer exits in shared mode")
	}
}

func TestGappedCoreMarkCompletes(t *testing.T) {
	n := NewNode(6, GappedDefault(), DefaultParams(), 1)
	cm := guest.NewCoreMark(4, 50*sim.Millisecond)
	vm, err := n.NewVM("vm0", 4, cm)
	if err != nil {
		t.Fatal(err)
	}
	end := n.RunUntilAllHalted(5 * sim.Second)
	if !cm.Done() {
		t.Fatalf("coremark not done at %v\n%s", end, n.Met.String())
	}
	if end > sim.Time(65*sim.Millisecond) {
		t.Fatalf("completed at %v, want < 65ms", end)
	}
	// Dedicated cores were bound and used.
	if len(vm.GuestCores()) != 4 {
		t.Fatalf("guest cores = %v", vm.GuestCores())
	}
	// With delegation, ticks are handled locally: almost no exits.
	ticks := count(n, "vm0.ticks")
	deleg := count(n, "vm0.ticks.delegated")
	if ticks == 0 || deleg == 0 {
		t.Fatalf("ticks=%d delegated=%d", ticks, deleg)
	}
	exits := count(n, "vm0.exits.total")
	if exits > ticks {
		t.Fatalf("exits (%d) should be far below ticks (%d) with delegation", exits, ticks)
	}
}

func TestGappedNoDelegationExitsPerTick(t *testing.T) {
	n := NewNode(3, GappedNoDelegation(), DefaultParams(), 1)
	cm := guest.NewCoreMark(1, 100*sim.Millisecond)
	_, err := n.NewVM("vm0", 1, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(5 * sim.Second)
	if !cm.Done() {
		t.Fatal("not done")
	}
	ticks := count(n, "vm0.ticks")
	timerExits := count(n, "vm0.exits.timer")
	// Two exits per tick (§4.4).
	if timerExits < 2*ticks-4 || timerExits > 2*ticks {
		t.Fatalf("timer exits = %d for %d ticks, want ~2x", timerExits, ticks)
	}
}

func TestGappedCoreGapInvariant(t *testing.T) {
	// The core security property (§3): only the monitor and the bound
	// guest ever execute on a dedicated core.
	n := NewNode(4, GappedDefault(), DefaultParams(), 1)
	cm := guest.NewCoreMark(2, 20*sim.Millisecond)
	vm, err := n.NewVM("vm0", 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(5 * sim.Second)
	for _, c := range vm.GuestCores() {
		for _, d := range n.Mach.Core(c).DomainsObserved() {
			if d != vm.Domain() && d != uarch.DomainMonitor && d != uarch.DomainHost {
				t.Fatalf("foreign domain %v on dedicated core %d", d, c)
			}
		}
		// Host may appear in the log only BEFORE dedication (hotplug).
		log := n.Mach.Core(c).ExecLog()
		seenGuest := false
		for _, r := range log {
			if r.Domain == vm.Domain() {
				seenGuest = true
			}
			if seenGuest && r.Domain == uarch.DomainHost {
				t.Fatalf("host executed on core %d after guest started", c)
			}
		}
	}
}

func TestGappedVMStopReclaimsCores(t *testing.T) {
	n := NewNode(4, GappedDefault(), DefaultParams(), 1)
	cm := guest.NewCoreMark(2, 10*sim.Millisecond)
	vm, err := n.NewVM("vm0", 2, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(sim.Second)
	if err := n.StopVM(vm); err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(10 * sim.Millisecond)
	if n.Kern.OnlineCount() != 4 {
		t.Fatalf("online = %d after reclaim, want 4", n.Kern.OnlineCount())
	}
	if n.Mon.DedicatedCount() != 0 {
		t.Fatal("monitor still holds cores")
	}
	// Cores can be reused by a new VM.
	cm2 := guest.NewCoreMark(2, 5*sim.Millisecond)
	if _, err := n.NewVM("vm1", 2, cm2); err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(sim.Second)
	if !cm2.Done() {
		t.Fatal("second VM did not run")
	}
}

func TestGappedAdmissionFailure(t *testing.T) {
	n := NewNode(4, GappedDefault(), DefaultParams(), 1)
	if _, err := n.NewVM("big", 4, guest.NewCoreMark(4, sim.Millisecond)); err == nil {
		t.Fatal("admitted VM larger than free cores") // host keeps 1
	}
}

func TestGappedIOzoneCompletes(t *testing.T) {
	n := NewNode(3, GappedDefault(), DefaultParams(), 1)
	z := guest.NewIOzone(64<<10, true, 4<<20)
	_, err := n.NewVM("vm0", 1, z)
	if err != nil {
		t.Fatal(err)
	}
	end := n.RunUntilAllHalted(10 * sim.Second)
	if z.Moved() != 4<<20 {
		t.Fatalf("moved %d at %v", z.Moved(), end)
	}
	// Block I/O produced MMIO exits and kick injections.
	if count(n, "vm0.exits.mmio") == 0 {
		t.Fatal("no mmio exits")
	}
	if count(n, "vm0.exits.kick") == 0 {
		t.Fatal("no kick exits (completion interrupts)")
	}
}

func TestSharedIOzoneCompletes(t *testing.T) {
	n := NewNode(3, Baseline(), DefaultParams(), 1)
	z := guest.NewIOzone(64<<10, true, 4<<20)
	if _, err := n.NewVM("vm0", 1, z); err != nil {
		t.Fatal(err)
	}
	end := n.RunUntilAllHalted(10 * sim.Second)
	if z.Moved() != 4<<20 {
		t.Fatalf("moved %d at %v", z.Moved(), end)
	}
}

func TestGappedVIPIDelegatedVsNot(t *testing.T) {
	run := func(opts Options) (sim.Time, uint64, *Node) {
		n := NewNode(4, opts, DefaultParams(), 1)
		b := guest.NewIPIBench(50)
		_, err := n.NewVM("vm0", 2, b)
		if err != nil {
			t.Fatal(err)
		}
		end := n.RunUntilAllHalted(10 * sim.Second)
		if b.Rounds() != 50 {
			t.Fatalf("rounds = %d\n%s", b.Rounds(), n.Met.String())
		}
		return end, count(n, "vm0.exits.vipi"), n
	}
	endDeleg, vipiExitsDeleg, nDeleg := run(GappedDefault())
	endNoDeleg, vipiExitsNoDeleg, _ := run(GappedNoDelegation())
	if vipiExitsDeleg != 0 {
		t.Fatalf("delegated vIPIs caused %d exits", vipiExitsDeleg)
	}
	if vipiExitsNoDeleg == 0 {
		t.Fatal("non-delegated vIPIs caused no exits")
	}
	if endDeleg >= endNoDeleg {
		t.Fatalf("delegation (%v) not faster than trap-to-host (%v)", endDeleg, endNoDeleg)
	}
	if count(nDeleg, "vm0.vipi.delegated") == 0 {
		t.Fatal("no delegated vipi recorded")
	}
}

func TestBusyWaitServicesExits(t *testing.T) {
	n := NewNode(3, GappedBusyWait(), DefaultParams(), 1)
	z := guest.NewIOzone(64<<10, true, 1<<20)
	_, err := n.NewVM("vm0", 1, z)
	if err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(10 * sim.Second)
	if z.Moved() != 1<<20 {
		t.Fatalf("busy-wait mode stalled: moved %d\n%s", z.Moved(), n.Met.String())
	}
	// The polling vCPU thread burned host CPU while waiting.
	vm := n.VMs()[0]
	if vm.VCPUs()[0].thread.CPUTime() == 0 {
		t.Fatal("poller consumed no CPU")
	}
}

func TestRunToRunLatencyRecorded(t *testing.T) {
	n := NewNode(3, GappedNoDelegation(), DefaultParams(), 1)
	cm := guest.NewCoreMark(1, 50*sim.Millisecond)
	if _, err := n.NewVM("vm0", 1, cm); err != nil {
		t.Fatal(err)
	}
	n.RunUntilAllHalted(5 * sim.Second)
	h := n.Met.Hist("vm0.runtorun")
	if h.Count() == 0 {
		t.Fatal("no run-to-run samples")
	}
	// §5.2: run-to-run latency ~26 µs. Accept a generous band.
	mean := h.Mean()
	if mean < 15*sim.Microsecond || mean > 40*sim.Microsecond {
		t.Fatalf("run-to-run mean = %v, want ~26us", mean)
	}
}

func TestAsyncNullRoundTripCalibration(t *testing.T) {
	p := DefaultParams()
	rt := p.AsyncNullRoundTrip(hw.DefaultConfig(2).IPILatency)
	// Table 2: 2757.6 ns.
	if rt < 2700*sim.Nanosecond || rt > 2810*sim.Nanosecond {
		t.Fatalf("async null RT = %v, want ~2757ns", rt)
	}
}

func TestModeStrings(t *testing.T) {
	if SharedCore.String() != "shared-core" || Gapped.String() != "core-gapped" {
		t.Fatal("mode strings")
	}
}

func TestCoreMarkProRunsInBothModes(t *testing.T) {
	run := func(opts Options, vcpus int) *guest.CoreMarkPro {
		n := NewNode(4, opts, DefaultParams(), 11)
		cmp := guest.NewCoreMarkPro(vcpus, 900*sim.Millisecond, func() sim.Time { return n.Eng.Now() })
		if _, err := n.NewVM("vm0", vcpus, cmp); err != nil {
			t.Fatal(err)
		}
		n.RunUntilAllHalted(60 * sim.Second)
		if !cmp.Done() {
			t.Fatal("suite incomplete")
		}
		return cmp
	}
	shared := run(Baseline(), 3)
	gapped := run(GappedDefault(), 3)
	if shared.Mark() <= 0 || gapped.Mark() <= 0 {
		t.Fatal("marks")
	}
	// Same vCPU count: the dedicated cores should not lose to the shared
	// ones (no host interference; small differences come from the 4 ms
	// barrier wake-up granularity between phases).
	if gapped.Mark() < shared.Mark()*0.95 {
		t.Fatalf("gapped mark %.3f well below shared %.3f", gapped.Mark(), shared.Mark())
	}
	// Memory-hungry workloads suffer relatively more interference on
	// shared cores than compute-bound ones.
	sScores, gScores := shared.PhaseScores(), gapped.PhaseScores()
	relNnet := sScores["nnet_test"] / gScores["nnet_test"]
	relSha := sScores["sha-test"] / gScores["sha-test"]
	if relNnet > relSha*1.02 {
		t.Fatalf("nnet (large WSS) should suffer at least as much as sha: %.4f vs %.4f", relNnet, relSha)
	}
}
