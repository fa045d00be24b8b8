// Quickstart: run the same CPU-bound workload as a traditional
// shared-core VM and as a core-gapped confidential VM, compare the
// scores, and verify the CVM's attestation token proves a core-gapping
// monitor is in charge.
package main

import (
	"fmt"
	"log"

	"coregap"
	"coregap/internal/attest"
	"coregap/internal/sim"
)

func main() {
	const (
		cores = 8
		work  = 500 * coregap.Millisecond
	)

	// ----- Traditional shared-core VM: 8 vCPUs time-share 8 cores. -----
	shared := coregap.NewNode(cores, coregap.Baseline(), coregap.DefaultParams(), 42)
	cmShared := coregap.NewCoreMark(cores, work)
	if _, err := shared.NewVM("baseline", cores, cmShared); err != nil {
		log.Fatal(err)
	}
	endShared := shared.RunUntilAllHalted(60 * coregap.Second)

	// ----- Core-gapped CVM: 7 dedicated cores + 1 host core. -----
	// Same number of physical cores in both configurations (§5.1).
	gapped := coregap.NewNode(cores, coregap.GappedDefault(), coregap.DefaultParams(), 42)
	cmGapped := coregap.NewCoreMark(cores-1, work)
	vm, err := gapped.NewVM("cvm", cores-1, cmGapped)
	if err != nil {
		log.Fatal(err)
	}
	endGapped := gapped.RunUntilAllHalted(60 * coregap.Second)

	fmt.Println("CoreMark-PRO on", cores, "physical cores:")
	fmt.Printf("  shared-core VM  (8 vCPUs): score %.3f effective cores\n",
		cmShared.Score(coregap.Duration(endShared)))
	fmt.Printf("  core-gapped CVM (7 vCPUs): score %.3f effective cores\n",
		cmGapped.Score(coregap.Duration(endGapped)))
	fmt.Printf("  CVM exits to host: %d total (delegation handled %d timer ticks locally)\n",
		gapped.Eng.CounterValue(sim.DefineCounter("cvm.exits.total")),
		gapped.Eng.CounterValue(sim.DefineCounter("cvm.ticks.delegated")))

	// ----- Attestation: the guest's proof that cores are gapped. -----
	token, err := gapped.Mon.Token(vm.Realm(), [32]byte{0xC0, 0xFF, 0xEE})
	if err != nil {
		log.Fatal(err)
	}
	policy := attest.Policy{
		RequireCoreGapped: true,
		ExpectedRIM:       vm.Realm().Ledger().RIM(),
	}
	if !gapped.Mon.Verifier().Verify(token) {
		log.Fatal("token signature invalid")
	}
	if err := policy.Evaluate(token); err != nil {
		log.Fatalf("policy rejected platform: %v", err)
	}
	fmt.Printf("\nattestation: monitor %q, core-gapped=%v — policy satisfied\n",
		token.MonitorVersion, token.CoreGapped)
	fmt.Printf("dedicated cores %v are bound for the CVM's lifetime; host core: %v\n",
		vm.GuestCores(), vm.HostCore())
}
