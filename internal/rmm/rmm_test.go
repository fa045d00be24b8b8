package rmm

import (
	"errors"
	"testing"

	"coregap/internal/attest"
	"coregap/internal/granule"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

type fixture struct {
	m    *Monitor
	mach *hw.Machine
	next granule.PA
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	eng := sim.NewEngine(3)
	mach := hw.NewMachine(eng, hw.DefaultConfig(8))
	return &fixture{m: New(mach, cfg), mach: mach}
}

// alloc delegates and returns a fresh granule.
func (f *fixture) alloc(t *testing.T) granule.PA {
	t.Helper()
	pa := f.next
	f.next += granule.Size
	if err := f.mach.GPT().Delegate(pa); err != nil {
		t.Fatal(err)
	}
	return pa
}

func (f *fixture) newRealm(t *testing.T, vcpus int) *Realm {
	t.Helper()
	r, err := f.m.RealmCreate(RealmParams{Name: "r", VCPUs: vcpus, IPASize: 40},
		f.alloc(t), f.alloc(t))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRealmLifecycle(t *testing.T) {
	f := newFixture(t, Config{})
	r := f.newRealm(t, 2)
	if r.State() != RealmNew {
		t.Fatalf("state = %v", r.State())
	}
	if !r.Domain().IsGuest() {
		t.Fatal("realm domain must be a guest domain")
	}

	rec0, err := f.m.RecCreate(r, f.alloc(t))
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := f.m.RecCreate(r, f.alloc(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.RecCreate(r, f.alloc(t)); err == nil {
		t.Fatal("over-provisioned rec accepted")
	}
	if rec0.Index() != 0 || rec1.Index() != 1 {
		t.Fatal("rec indices")
	}

	if err := f.m.Activate(r); err != nil {
		t.Fatal(err)
	}
	if err := f.m.Activate(r); !errors.Is(err, ErrRealmState) {
		t.Fatalf("double activate: %v", err)
	}
	if _, err := f.m.RecCreate(r, f.alloc(t)); !errors.Is(err, ErrRealmState) {
		t.Fatalf("rec create after activate: %v", err)
	}

	if err := f.m.Destroy(r); err != nil {
		t.Fatal(err)
	}
	if r.State() != RealmDestroyed || rec0.State() != RecDestroyed {
		t.Fatal("destroy did not cascade")
	}
	if err := f.m.Destroy(r); !errors.Is(err, ErrBadRealm) {
		t.Fatalf("double destroy: %v", err)
	}
}

func TestRealmCreateValidation(t *testing.T) {
	f := newFixture(t, Config{})
	// Zero or absurd vCPU counts rejected.
	if _, err := f.m.RealmCreate(RealmParams{VCPUs: 0}, f.alloc(t), f.alloc(t)); err == nil {
		t.Fatal("0 vcpus accepted")
	}
	if _, err := f.m.RealmCreate(RealmParams{VCPUs: 999}, f.alloc(t), f.alloc(t)); err == nil {
		t.Fatal("999 vcpus accepted")
	}
	// Undelegated granules rejected.
	if _, err := f.m.RealmCreate(RealmParams{VCPUs: 1}, granule.PA(1<<30), f.alloc(t)); err == nil {
		t.Fatal("undelegated RD accepted")
	}
}

func TestDistinctRealmsDistinctDomains(t *testing.T) {
	f := newFixture(t, Config{})
	r1 := f.newRealm(t, 1)
	r2 := f.newRealm(t, 1)
	if r1.Domain() == r2.Domain() || r1.ID() == r2.ID() {
		t.Fatal("realms share identity")
	}
}

func TestDataCreateMeasuresOnlyBeforeActivation(t *testing.T) {
	f := newFixture(t, Config{})
	r := f.newRealm(t, 1)
	buildRTT(t, f, r, 0x8000_0000)

	if err := f.m.DataCreate(r, 0x8000_0000, f.alloc(t), []byte("boot code")); err != nil {
		t.Fatal(err)
	}
	rimBefore := r.Ledger().RIM()
	f.m.Activate(r)
	// Post-activation data (host-initiated demand paging) is not measured.
	if err := f.m.DataCreate(r, 0x8000_0000+granule.Size, f.alloc(t), []byte("later")); err != nil {
		t.Fatal(err)
	}
	if r.Ledger().RIM() != rimBefore {
		t.Fatal("post-activation DataCreate changed the RIM")
	}
}

func buildRTT(t *testing.T, f *fixture, r *Realm, ipa granule.IPA) {
	t.Helper()
	for level := 1; level <= 3; level++ {
		if err := r.RTT().CreateTable(ipa, level, f.alloc(t)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckEnterBaselineAllowsAnyCore(t *testing.T) {
	f := newFixture(t, Config{CoreGapped: false})
	r := f.newRealm(t, 1)
	rec, _ := f.m.RecCreate(r, f.alloc(t))
	f.m.Activate(r)
	// Baseline CCA: any core, including migration, is fine.
	if err := f.m.CheckEnter(rec, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.m.CheckEnter(rec, 5); err != nil {
		t.Fatal(err)
	}
	if rec.BoundCore() != hw.NoCore {
		t.Fatal("baseline must not bind cores")
	}
}

func TestCheckEnterRequiresActivation(t *testing.T) {
	f := newFixture(t, Config{})
	r := f.newRealm(t, 1)
	rec, _ := f.m.RecCreate(r, f.alloc(t))
	if err := f.m.CheckEnter(rec, 0); !errors.Is(err, ErrNotActive) {
		t.Fatalf("enter before activation: %v", err)
	}
}

func TestCoreGappedBindingEnforcement(t *testing.T) {
	f := newFixture(t, Config{CoreGapped: true})
	r := f.newRealm(t, 2)
	rec0, _ := f.m.RecCreate(r, f.alloc(t))
	rec1, _ := f.m.RecCreate(r, f.alloc(t))
	f.m.Activate(r)

	// Entering on a non-dedicated core fails.
	if err := f.m.CheckEnter(rec0, 3); !errors.Is(err, ErrCoreNotDedicated) {
		t.Fatalf("enter on host core: %v", err)
	}
	f.m.DedicateCore(3)
	f.m.DedicateCore(4)

	// First entry binds.
	if err := f.m.CheckEnter(rec0, 3); err != nil {
		t.Fatal(err)
	}
	if rec0.BoundCore() != 3 || f.m.BoundRec(3) != rec0 {
		t.Fatal("binding not recorded")
	}
	// Re-entry on the same core is fine.
	if err := f.m.CheckEnter(rec0, 3); err != nil {
		t.Fatal(err)
	}
	// Migration attempt: dispatch the same vCPU elsewhere fails (§4.2).
	if err := f.m.CheckEnter(rec0, 4); !errors.Is(err, ErrBoundElsewhere) {
		t.Fatalf("migration: %v", err)
	}
	// Co-scheduling another vCPU on the bound core fails.
	if err := f.m.CheckEnter(rec1, 3); !errors.Is(err, ErrCoreInUse) {
		t.Fatalf("co-schedule: %v", err)
	}
	if err := f.m.CheckEnter(rec1, 4); err != nil {
		t.Fatal(err)
	}
}

func TestCrossRealmCoSchedulingBlocked(t *testing.T) {
	// The attack from §3: a malicious guest's vCPU dispatched on a
	// victim's core. The monitor must refuse.
	f := newFixture(t, Config{CoreGapped: true})
	victim := f.newRealm(t, 1)
	vrec, _ := f.m.RecCreate(victim, f.alloc(t))
	f.m.Activate(victim)
	attacker := f.newRealm(t, 1)
	arec, _ := f.m.RecCreate(attacker, f.alloc(t))
	f.m.Activate(attacker)

	f.m.DedicateCore(2)
	if err := f.m.CheckEnter(vrec, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.m.CheckEnter(arec, 2); !errors.Is(err, ErrCoreInUse) {
		t.Fatalf("attacker co-scheduled on victim core: %v", err)
	}
}

func TestReclaimProtocol(t *testing.T) {
	f := newFixture(t, Config{CoreGapped: true})
	r := f.newRealm(t, 1)
	rec, _ := f.m.RecCreate(r, f.alloc(t))
	f.m.Activate(r)
	f.m.DedicateCore(5)
	if err := f.m.CheckEnter(rec, 5); err != nil {
		t.Fatal(err)
	}
	// Host cannot reclaim a core with a live binding.
	if err := f.m.ReclaimCore(5); !errors.Is(err, ErrCoreBusy) {
		t.Fatalf("reclaim of bound core: %v", err)
	}
	// Destroying the realm releases bindings; reclaim then succeeds.
	if err := f.m.Destroy(r); err != nil {
		t.Fatal(err)
	}
	if err := f.m.ReclaimCore(5); err != nil {
		t.Fatal(err)
	}
	if f.m.IsDedicated(5) {
		t.Fatal("core still dedicated after reclaim")
	}
	// Reclaiming a never-dedicated core fails.
	if err := f.m.ReclaimCore(7); !errors.Is(err, ErrCoreNotDedicated) {
		t.Fatalf("reclaim of host core: %v", err)
	}
}

func TestEnterAfterRecDestroy(t *testing.T) {
	f := newFixture(t, Config{CoreGapped: true})
	r := f.newRealm(t, 1)
	rec, _ := f.m.RecCreate(r, f.alloc(t))
	f.m.Activate(r)
	f.m.DedicateCore(1)
	if err := f.m.CheckEnter(rec, 1); err != nil {
		t.Fatal(err)
	}
	f.m.RecDestroy(rec)
	if err := f.m.CheckEnter(rec, 1); !errors.Is(err, ErrBadRec) {
		t.Fatalf("enter of destroyed rec: %v", err)
	}
}

func TestEnterExitAccounting(t *testing.T) {
	f := newFixture(t, Config{})
	r := f.newRealm(t, 1)
	rec, _ := f.m.RecCreate(r, f.alloc(t))
	f.m.Activate(r)
	f.m.NoteEnter(rec)
	if rec.State() != RecRunning || rec.Enters() != 1 {
		t.Fatal("enter accounting")
	}
	f.m.NoteExit(rec)
	if rec.State() != RecReady || rec.Exits() != 1 {
		t.Fatal("exit accounting")
	}
}

func TestAttestationCoreGapClaim(t *testing.T) {
	for _, gapped := range []bool{true, false} {
		f := newFixture(t, Config{CoreGapped: gapped})
		r := f.newRealm(t, 1)
		if _, err := f.m.Token(r, [32]byte{}); !errors.Is(err, ErrNotActive) {
			t.Fatalf("token before activation: %v", err)
		}
		f.m.Activate(r)
		tok, err := f.m.Token(r, [32]byte{1})
		if err != nil {
			t.Fatal(err)
		}
		if !f.m.Verifier().Verify(tok) {
			t.Fatal("token does not verify")
		}
		if tok.CoreGapped != gapped {
			t.Fatalf("token claims gapped=%v, monitor is %v", tok.CoreGapped, gapped)
		}
		// A guest policy requiring core gapping accepts/rejects correctly.
		pol := attest.Policy{RequireCoreGapped: true, ExpectedRIM: r.Ledger().RIM()}
		err = pol.Evaluate(tok)
		if gapped && err != nil {
			t.Fatalf("policy rejected gapped platform: %v", err)
		}
		if !gapped && err == nil {
			t.Fatal("policy accepted shared-core platform")
		}
	}
}

func TestGranuleAccountingAcrossLifecycle(t *testing.T) {
	f := newFixture(t, Config{})
	gpt := f.mach.GPT()
	base := gpt.CountIn(granule.Delegated)
	r := f.newRealm(t, 1)
	rec, _ := f.m.RecCreate(r, f.alloc(t))
	_ = rec
	buildRTT(t, f, r, 0)
	if err := f.m.DataCreate(r, 0, f.alloc(t), []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.m.Activate(r)
	f.m.Destroy(r)
	// After destroy: RD, REC, Data granules released back to Delegated;
	// RTT table granules remain claimed by the tree in this model (the
	// host undelegates them during full teardown).
	if gpt.CountIn(granule.RD) != 0 || gpt.CountIn(granule.REC) != 0 || gpt.CountIn(granule.Data) != 1 {
		t.Fatalf("leaked granules: rd=%d rec=%d data=%d",
			gpt.CountIn(granule.RD), gpt.CountIn(granule.REC), gpt.CountIn(granule.Data))
	}
	_ = base
}

func TestDomainTrustInvariant(t *testing.T) {
	f := newFixture(t, Config{})
	r := f.newRealm(t, 1)
	if r.Domain().Trusts(uarch.DomainHost) {
		t.Fatal("realm domain trusts host")
	}
}

func TestStateStrings(t *testing.T) {
	if RealmNew.String() != "new" || RealmActive.String() != "active" || RealmDestroyed.String() != "destroyed" {
		t.Fatal("realm state strings")
	}
	if RecReady.String() != "ready" || RecRunning.String() != "running" || RecDestroyed.String() != "destroyed" {
		t.Fatal("rec state strings")
	}
}
