package rmm_test

import (
	"testing"
	"testing/quick"

	"coregap/internal/core"
	"coregap/internal/granule"
	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/rmm"
	"coregap/internal/sim"
	"coregap/internal/smc"
)

// TestABIFuzzNoPanicNoCorruption throws random calls at the monitor's SMC
// entry, both on a fresh monitor and on the monitor of a booted node whose
// CVM is running: nothing a hostile host sends may panic the monitor or
// unbalance the granule accounting. The booted node's RD and REC handles
// lie among the plausible addresses and its cores among the plausible
// core ids, so the fuzz reaches a live realm, its RECs and their bound
// cores.
func TestABIFuzzNoPanicNoCorruption(t *testing.T) {
	fids := []smc.FID{
		smc.RMIVersion, smc.RMIFeatures, smc.RMIGranuleDelegate,
		smc.RMIGranuleUndelegate, smc.RMIDataCreate, smc.RMIDataDestroy,
		smc.RMIRealmActivate, smc.RMIRealmCreate, smc.RMIRealmDestroy,
		smc.RMIRecCreate, smc.RMIRecDestroy, smc.RMIRecEnter,
		smc.RMIRttCreate, smc.RMIRttDestroy, smc.RMIRttMapUnprotected,
		smc.RMICoreDedicate, smc.RMICoreReclaim, smc.RMICoreRebind,
		smc.FID(0xdeadbeef),
	}

	mach := hw.NewMachine(sim.NewEngine(5), hw.DefaultConfig(8))
	node := core.NewNode(6, core.GappedDefault(), core.DefaultParams(), 5)
	if _, err := node.NewVM("vm0", 2, guest.NewCoreMark(2, 50*sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	node.Eng.RunFor(10 * sim.Millisecond)

	for _, target := range []struct {
		name string
		m    *rmm.Monitor
		gpt  *granule.Table
	}{
		{"fresh", rmm.New(mach, rmm.Config{CoreGapped: true}), mach.GPT()},
		{"booted", node.Mon, node.Mach.GPT()},
	} {
		total := target.gpt.Granules()
		src := sim.NewSource(77)
		prop := func(raw []uint16) bool {
			for _, r := range raw {
				c := smc.Call{FID: fids[int(r)%len(fids)]}
				for i := range c.Args {
					// Mix plausible granule addresses and core ids with
					// garbage.
					switch src.Intn(3) {
					case 0:
						c.Args[i] = uint64(src.Intn(64)) * granule.Size
					case 1:
						c.Args[i] = uint64(src.Intn(8))
					default:
						c.Args[i] = src.Uint64()
					}
				}
				target.m.Handle(c) // must not panic
			}
			var sum uint64
			for s := granule.Undelegated; s <= granule.Data; s++ {
				sum += target.gpt.CountIn(s)
			}
			return sum == total
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s monitor: %v", target.name, err)
		}
	}
}
