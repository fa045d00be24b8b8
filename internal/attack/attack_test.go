package attack

import (
	"testing"

	"coregap/internal/uarch"
	"coregap/internal/vulncat"
)

func TestSharedCoreZeroDayLeaks(t *testing.T) {
	h := NewHarness(1, 2, false)
	res := h.RunBattery(SharedTimeSlicedNoFlush)
	leaked := res.LeakedVulns()
	// Without mitigations, time-slicing on one core leaks through most
	// same-core structures that carry data (branch-only channels carry
	// control-flow, still counted when tagged secret).
	if len(leaked) < 20 {
		t.Fatalf("zero-day shared-core battery leaked only %d: %v", len(leaked), leaked)
	}
}

func TestSharedCoreFlushedStillLeaks(t *testing.T) {
	// Deployed mitigations cover MDS-class buffers, but structures
	// outside their reach (L1D contents, TLBs, APIC state) still leak —
	// the paper's "flushing cannot protect against everything".
	h := NewHarness(1, 2, false)
	res := h.RunBattery(SharedTimeSliced)
	leaked := map[string]bool{}
	for _, n := range res.LeakedVulns() {
		leaked[n] = true
	}
	if !leaked["Meltdown"] && !leaked["Foreshadow"] && !leaked["AEPIC leak"] {
		t.Fatalf("flush-covered battery should still leak via unflushed structures: %v",
			res.LeakedVulns())
	}
	// But MDS-class attacks through flushed buffers are stopped.
	if leaked["ZombieLoad"] || leaked["Fallout"] {
		t.Fatalf("flushed store/fill buffers still leaked: %v", res.LeakedVulns())
	}
}

func TestCoreGappingStopsAllButCrossCore(t *testing.T) {
	h := NewHarness(1, 2, false)
	res := h.RunBattery(CoreGappedPlacement)
	leaked := res.LeakedVulns()
	// The paper's headline: the only surviving leak with a data channel
	// in a cloud setting is CrossTalk's shared staging buffer. (LLC and
	// interconnect contention channels carry no secret-tagged data in
	// this model; NetSpectre is remote and rate-limited to <10 b/h.)
	for _, name := range leaked {
		if name != "CrossTalk" {
			t.Fatalf("core gapping leaked through %s (all leaks: %v)", name, leaked)
		}
	}
	if len(leaked) != 1 || leaked[0] != "CrossTalk" {
		t.Fatalf("expected exactly CrossTalk to survive, got %v", leaked)
	}
}

func TestBatteryConsistentWithCatalogueVerdicts(t *testing.T) {
	h := NewHarness(1, 2, false)
	res := h.RunBattery(CoreGappedPlacement)
	for _, o := range res.Outcomes {
		if o.Leaked && o.Vuln.MitigatedByCoreGapping() {
			t.Errorf("%s: leaked under core gapping but catalogued as mitigated", o.Vuln.Name)
		}
	}
}

func TestLLCPartitioningClosesCacheChannel(t *testing.T) {
	// §2.4 recommends hardware cache partitioning for the remaining
	// LLC side channel; with it on, LLC residue becomes unobservable.
	h := NewHarness(1, 2, true)
	h.runVictim(0)
	prim := Primitive{Vuln: vulncat.Vuln{
		Name: "llc-probe", Scope: vulncat.CrossCore,
		Structures: []uarch.StructKind{uarch.LLC},
	}}
	samples := prim.SampleCore(h.Machine(), 1, h.Attacker())
	for _, s := range samples {
		if s.Victim == h.Victim() {
			t.Fatalf("partitioned LLC still observable: %+v", s)
		}
	}

	// Without partitioning, the victim's footprint is visible.
	h2 := NewHarness(1, 2, false)
	h2.runVictim(0)
	samples2 := prim.SampleCore(h2.Machine(), 1, h2.Attacker())
	found := false
	for _, s := range samples2 {
		if s.Victim == h2.Victim() {
			found = true
		}
	}
	if !found {
		t.Fatal("unpartitioned LLC shows no victim footprint")
	}
}

func TestCrossTalkLeaksRegardlessOfPlacement(t *testing.T) {
	// The staging buffer is shared by all cores: core gapping cannot
	// help (the paper is explicit that CrossTalk needed a ucode fix).
	h := NewHarness(1, 2, false)
	var crossTalk vulncat.Vuln
	for _, v := range vulncat.Catalogue() {
		if v.Name == "CrossTalk" {
			crossTalk = v
		}
	}
	o := h.Attempt(crossTalk, CoreGappedPlacement)
	if !o.Leaked {
		t.Fatal("CrossTalk must leak across cores via the staging buffer")
	}
}

func TestSameThreadSamplesCarrySecrets(t *testing.T) {
	h := NewHarness(1, 2, false)
	h.runVictim(0)
	prim := Primitive{Vuln: vulncat.Vuln{
		Name: "mds-like", Scope: vulncat.SiblingSMT,
		Structures: []uarch.StructKind{uarch.FillBuffer, uarch.StoreBuffer},
	}}
	samples := prim.SampleCore(h.Machine(), 0, h.Attacker())
	if len(LeakedFrom(samples, h.Victim())) == 0 {
		t.Fatal("same-core sampling of an unflushed victim found no secrets")
	}
	// The same primitive on the other core sees nothing.
	samples = prim.SampleCore(h.Machine(), 1, h.Attacker())
	if len(LeakedFrom(samples, h.Victim())) != 0 {
		t.Fatal("per-core structures leaked across cores")
	}
}

func TestSchedulingStrings(t *testing.T) {
	for s, want := range map[Scheduling]string{
		SharedTimeSliced:        "shared-core (flushing monitor)",
		SharedTimeSlicedNoFlush: "shared-core (unmitigated zero-day)",
		CoreGappedPlacement:     "core-gapped",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

func TestBatteryString(t *testing.T) {
	h := NewHarness(1, 2, false)
	res := h.RunBattery(CoreGappedPlacement)
	if res.String() == "" {
		t.Fatal("empty battery summary")
	}
}

// referenceAttempt is Attempt's slice-based reader: the full sample set,
// filtered to the victim's secrets, zeroed when the catalogue rules the
// placement out.
func referenceAttempt(h *Harness, v vulncat.Vuln, sched Scheduling) Outcome {
	core, placement := h.stage(sched)
	leaked := LeakedFrom(Primitive{Vuln: v}.SampleCore(h.mach, core, h.attacker), h.victim)
	if !vulncat.Exploitable(v, placement) {
		leaked = nil
	}
	return Outcome{Vuln: v, Placement: placement, Leaked: len(leaked) > 0, Samples: len(leaked)}
}

// referenceBattery is RunBattery over referenceAttempt.
func referenceBattery(h *Harness, sched Scheduling) []Outcome {
	var out []Outcome
	for _, v := range vulncat.Catalogue() {
		h.scrub()
		out = append(out, referenceAttempt(h, v, sched))
	}
	return out
}

var schedulings = []Scheduling{SharedTimeSliced, SharedTimeSlicedNoFlush, CoreGappedPlacement}

// TestLeaksMatchSamples pins the in-place count to the slice-based
// readers: for every catalogued vulnerability, scheduling, LLC
// partitioning mode and seed, Leaks equals the length of the victim's
// secret samples — counted first over deferred fills and again after
// SampleCore has materialized them — and RunBattery's outcomes equal
// the reference battery's.
func TestLeaksMatchSamples(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		for _, part := range []bool{false, true} {
			for _, sched := range schedulings {
				// No flush between attempts: state accumulates, so the
				// counts run over materialized base entries under fresh
				// deferred runs as well as over fresh runs alone.
				h := NewHarness(seed, 2, part)
				for _, v := range vulncat.Catalogue() {
					core, _ := h.stage(sched)
					prim := Primitive{Vuln: v}
					lazy := prim.Leaks(h.mach, core, h.attacker, h.victim)
					want := len(LeakedFrom(prim.SampleCore(h.mach, core, h.attacker), h.victim))
					eager := prim.Leaks(h.mach, core, h.attacker, h.victim)
					if lazy != want || eager != want {
						t.Fatalf("seed %d partition %v %v %s: Leaks %d before and %d after materializing, samples %d",
							seed, part, sched, v.Name, lazy, eager, want)
					}
					if got := prim.Leaks(h.mach, core, h.victim, h.victim); got != 0 {
						t.Fatalf("%s: victim leaks %d entries to itself", v.Name, got)
					}
				}

				got := NewHarness(seed, 2, part).RunBattery(sched).Outcomes
				want := referenceBattery(NewHarness(seed, 2, part), sched)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d outcomes, reference %d", seed, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Vuln.Name != w.Vuln.Name || g.Placement != w.Placement || g.Leaked != w.Leaked || g.Samples != w.Samples {
						t.Fatalf("seed %d partition %v %v %s: outcome {%v %v %d}, reference {%v %v %d}",
							seed, part, sched, w.Vuln.Name, g.Placement, g.Leaked, g.Samples, w.Placement, w.Leaked, w.Samples)
					}
				}
			}
		}
	}
}

// TestZeroAllocAttempt gates the battery's hot path: once warmed, an
// attempt allocates nothing under any scheduling. The warm-up attempts
// every catalogued vulnerability once, which grows each buffer's entries
// and run slices to their working size and publishes every jump length
// the attempts replay to the process-wide memo.
func TestZeroAllocAttempt(t *testing.T) {
	cat := vulncat.Catalogue()
	for _, sched := range schedulings {
		h := NewHarness(1, 2, false)
		i := 0
		attempt := func() {
			h.Attempt(cat[i%len(cat)], sched)
			i++
		}
		for range cat {
			attempt()
		}
		if avg := testing.AllocsPerRun(10*len(cat), attempt); avg != 0 {
			t.Fatalf("%v: Attempt allocates %.2f times per call, want 0", sched, avg)
		}
	}
}
