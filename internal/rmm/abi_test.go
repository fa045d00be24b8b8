package rmm

import (
	"testing"

	"coregap/internal/granule"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/smc"
)

// abiFixture drives the monitor purely through the SMC ABI, as a real
// host kernel would.
type abiFixture struct {
	m    *Monitor
	next uint64
}

func newABIFixture(t *testing.T, cfg Config) *abiFixture {
	t.Helper()
	return &abiFixture{m: New(hw.NewMachine(sim.NewEngine(5), hw.DefaultConfig(8)), cfg)}
}

func (f *abiFixture) call(fid smc.FID, args ...uint64) smc.Result {
	c := smc.Call{FID: fid}
	copy(c.Args[:], args)
	return f.m.Handle(c)
}

// delegated returns a freshly delegated granule PA via the ABI.
func (f *abiFixture) delegated(t *testing.T) uint64 {
	t.Helper()
	pa := f.next
	f.next += granule.Size
	if r := f.call(smc.RMIGranuleDelegate, pa); r.Status != smc.StatusSuccess {
		t.Fatalf("delegate %#x: %v", pa, r.Status)
	}
	return pa
}

// buildRealm constructs and activates a realm entirely through the ABI,
// returning the RD handle and REC handles.
func (f *abiFixture) buildRealm(t *testing.T, vcpus int) (uint64, []uint64) {
	t.Helper()
	rd := f.delegated(t)
	rtt := f.delegated(t)
	if r := f.call(smc.RMIRealmCreate, rd, rtt, uint64(vcpus), 40, 0); r.Status != smc.StatusSuccess {
		t.Fatalf("realm create: %v", r.Status)
	}
	var recs []uint64
	for i := 0; i < vcpus; i++ {
		rec := f.delegated(t)
		if r := f.call(smc.RMIRecCreate, rd, rec); r.Status != smc.StatusSuccess {
			t.Fatalf("rec create: %v", r.Status)
		}
		recs = append(recs, rec)
	}
	if r := f.call(smc.RMIRealmActivate, rd); r.Status != smc.StatusSuccess {
		t.Fatalf("activate: %v", r.Status)
	}
	return rd, recs
}

func TestABIVersionAndFeatures(t *testing.T) {
	f := newABIFixture(t, Config{CoreGapped: true, DelegateTimer: true, DelegateVIPI: true})
	if r := f.call(smc.RMIVersion); r.Status != smc.StatusSuccess || r.Vals[0] != abiVersion {
		t.Fatalf("version = %+v", r)
	}
	r := f.call(smc.RMIFeatures)
	if r.Vals[0] != featureCoreGap|featureDelegTim|featureDelegIPI {
		t.Fatalf("features = %#x", r.Vals[0])
	}
	f2 := newABIFixture(t, Config{})
	if r := f2.call(smc.RMIFeatures); r.Vals[0] != 0 {
		t.Fatalf("baseline features = %#x", r.Vals[0])
	}
}

func TestABIRealmLifecycle(t *testing.T) {
	f := newABIFixture(t, Config{CoreGapped: true})
	rd, recs := f.buildRealm(t, 2)

	// Stage-2 build and data mapping through the ABI.
	ipa := uint64(0x8000_0000)
	for level := uint64(1); level <= 3; level++ {
		if r := f.call(smc.RMIRttCreate, rd, ipa, level, f.delegated(t)); r.Status != smc.StatusSuccess {
			t.Fatalf("rtt level %d: %v", level, r.Status)
		}
	}
	if r := f.call(smc.RMIDataCreate, rd, ipa, f.delegated(t)); r.Status != smc.StatusSuccess {
		t.Fatalf("data create: %v", r.Status)
	}
	if r := f.call(smc.RMIDataDestroy, rd, ipa); r.Status != smc.StatusSuccess {
		t.Fatalf("data destroy: %v", r.Status)
	}

	// Destroy: realm and all its RECs disappear from the handle space.
	if r := f.call(smc.RMIRealmDestroy, rd); r.Status != smc.StatusSuccess {
		t.Fatalf("destroy: %v", r.Status)
	}
	if r := f.call(smc.RMIRecDestroy, recs[0]); r.Status != smc.StatusErrorRec {
		t.Fatalf("stale rec handle: %v", r.Status)
	}
	if r := f.call(smc.RMIRealmActivate, rd); r.Status != smc.StatusErrorRealm {
		t.Fatalf("stale rd handle: %v", r.Status)
	}
}

func TestABIHostileHandles(t *testing.T) {
	f := newABIFixture(t, Config{CoreGapped: true})
	rd, _ := f.buildRealm(t, 1)

	// Fabricated handles are rejected, never dereferenced.
	if r := f.call(smc.RMIRecCreate, 0xdead000, f.delegated(t)); r.Status != smc.StatusErrorRealm {
		t.Fatalf("bogus rd: %v", r.Status)
	}
	if r := f.call(smc.RMIRecEnter, 0xdead000, 1); r.Status != smc.StatusErrorRec {
		t.Fatalf("bogus rec: %v", r.Status)
	}
	// Duplicate RD reuse is refused.
	if r := f.call(smc.RMIRealmCreate, rd, f.delegated(t), 1, 40, 0); r.Status == smc.StatusSuccess {
		t.Fatal("rd handle reuse accepted")
	}
	// Unknown FID.
	if r := f.call(smc.FID(0xC4000FFF)); r.Status != smc.StatusErrorUnknown {
		t.Fatalf("unknown fid: %v", r.Status)
	}
	// Undelegated granules fail cleanly.
	if r := f.call(smc.RMIRecCreate, rd, 0x7000_0000); r.Status == smc.StatusSuccess {
		t.Fatal("undelegated REC granule accepted")
	}
}

func TestABICoreGapEnforcement(t *testing.T) {
	f := newABIFixture(t, Config{CoreGapped: true})
	rd, recs := f.buildRealm(t, 2)
	_ = rd

	// Entering on a host core fails with the core-gap status.
	if r := f.call(smc.RMIRecEnter, recs[0], 3); r.Status != smc.StatusErrorCoreGap {
		t.Fatalf("enter on non-dedicated core: %v", r.Status)
	}
	if r := f.call(smc.RMICoreDedicate, 3); r.Status != smc.StatusSuccess {
		t.Fatal("dedicate")
	}
	if r := f.call(smc.RMIRecEnter, recs[0], 3); r.Status != smc.StatusSuccess {
		t.Fatalf("enter on dedicated core: %v", r.Status)
	}
	// Co-scheduling and migration refused at the ABI.
	if r := f.call(smc.RMIRecEnter, recs[1], 3); r.Status != smc.StatusErrorCoreGap {
		t.Fatalf("co-schedule: %v", r.Status)
	}
	if r := f.call(smc.RMICoreDedicate, 4); r.Status != smc.StatusSuccess {
		t.Fatal("dedicate 4")
	}
	if r := f.call(smc.RMIRecEnter, recs[0], 4); r.Status != smc.StatusErrorCoreGap {
		t.Fatalf("migrate: %v", r.Status)
	}
	// Reclaim of a bound core refused; invalid core ids rejected.
	if r := f.call(smc.RMICoreReclaim, 3); r.Status != smc.StatusErrorCoreGap {
		t.Fatalf("reclaim bound core: %v", r.Status)
	}
	if r := f.call(smc.RMICoreDedicate, 999); r.Status != smc.StatusErrorInput {
		t.Fatalf("bogus core id: %v", r.Status)
	}
	if r := f.call(smc.RMIRecEnter, recs[0], 999); r.Status != smc.StatusErrorInput {
		t.Fatalf("bogus enter core id: %v", r.Status)
	}
}

func TestABIGranuleRoundTrip(t *testing.T) {
	f := newABIFixture(t, Config{})
	pa := f.delegated(t)
	if r := f.call(smc.RMIGranuleDelegate, pa); r.Status != smc.StatusErrorInUse {
		t.Fatalf("double delegate: %v", r.Status)
	}
	if r := f.call(smc.RMIGranuleUndelegate, pa); r.Status != smc.StatusSuccess {
		t.Fatalf("undelegate: %v", r.Status)
	}
	if r := f.call(smc.RMIGranuleDelegate, pa+1); r.Status != smc.StatusErrorInput {
		t.Fatalf("unaligned: %v", r.Status)
	}
}
