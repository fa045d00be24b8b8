package core

import (
	"testing"

	"coregap/internal/granule"
	"coregap/internal/guest"
	"coregap/internal/sim"
	"coregap/internal/smc"
)

// TestDynamicMemoryWhileRunning exercises §7's "dynamic memory allocation
// and deallocation" claim: the host balloons pages into and out of a
// *running* core-gapped CVM through the monitor's RMI (stage-2 churn), without
// disturbing the guest and without unbalancing granule accounting.
func TestDynamicMemoryWhileRunning(t *testing.T) {
	n := NewNode(3, GappedDefault(), DefaultParams(), 21)
	cm := guest.NewCoreMark(1, 80*sim.Millisecond)
	vm, err := n.NewVM("vm0", 1, cm)
	if err != nil {
		t.Fatal(err)
	}
	n.Eng.RunFor(10 * sim.Millisecond)

	gpt := n.Mach.GPT()
	rd := uint64(vm.rd)
	base := granule.IPA(0x8000_0000)

	// Balloon in: map 64 fresh pages while the guest computes.
	var mapped []granule.IPA
	for i := 0; i < 64; i++ {
		ipa := base + granule.IPA((16+i)*granule.Size)
		pa := n.allocGranule()
		if st := smcCall(n, smc.RMIDataCreate, rd, uint64(ipa), uint64(pa)); st != smc.StatusSuccess {
			t.Fatalf("balloon-in page %d: %v", i, st)
		}
		mapped = append(mapped, ipa)
		n.Eng.RunFor(100 * sim.Microsecond)
	}
	inFlight := gpt.CountIn(granule.Data)

	// Balloon out: unmap half of them.
	for i, ipa := range mapped {
		if i%2 == 1 {
			continue
		}
		if st := smcCall(n, smc.RMIDataDestroy, rd, uint64(ipa)); st != smc.StatusSuccess {
			t.Fatalf("balloon-out %v: %v", ipa, st)
		}
		n.Eng.RunFor(100 * sim.Microsecond)
	}
	if got := gpt.CountIn(granule.Data); got != inFlight-32 {
		t.Fatalf("data granules = %d, want %d", got, inFlight-32)
	}

	// The guest never noticed.
	n.RunUntilAllHalted(10 * sim.Second)
	if !cm.Done() {
		t.Fatal("guest disturbed by memory churn")
	}

	// Accounting stays balanced across the whole machine.
	var sum uint64
	for s := granule.Undelegated; s <= granule.Data; s++ {
		sum += gpt.CountIn(s)
	}
	if sum != gpt.Granules() {
		t.Fatalf("granule accounting unbalanced: %d != %d", sum, gpt.Granules())
	}

	// Unmapped (Destroyed) IPAs cannot be silently remapped by the host.
	if st := smcCall(n, smc.RMIDataCreate, rd, uint64(mapped[0]), uint64(n.allocGranule())); st == smc.StatusSuccess {
		t.Fatal("replay of destroyed mapping accepted")
	}
}
