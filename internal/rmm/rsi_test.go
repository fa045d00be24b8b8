package rmm

import (
	"testing"

	"coregap/internal/granule"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/smc"
)

func newActiveRealm(t *testing.T, cfg Config) (*Monitor, *Realm) {
	t.Helper()
	eng := sim.NewEngine(9)
	mach := hw.NewMachine(eng, hw.DefaultConfig(4))
	m := New(mach, cfg)
	alloc := func(pa uint64) uint64 {
		if err := mach.GPT().Delegate(granule.PA(pa)); err != nil {
			t.Fatal(err)
		}
		return pa
	}
	r, err := m.RealmCreate(RealmParams{Name: "g", VCPUs: 1, IPASize: 40},
		granule.PA(alloc(0)), granule.PA(alloc(4096)))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Activate(r); err != nil {
		t.Fatal(err)
	}
	return m, r
}

func TestRSIVersionAndConfig(t *testing.T) {
	m, r := newActiveRealm(t, Config{CoreGapped: true})
	d := NewRSIDispatcher(m, r)
	if res := d.Handle(smc.Call{FID: smc.RSIVersion}); res.Vals[0] != abiVersion {
		t.Fatalf("version = %+v", res)
	}
	res := d.Handle(smc.Call{FID: smc.RSIRealmConfig})
	if res.Vals[0] != 40 {
		t.Fatalf("ipa bits = %d", res.Vals[0])
	}
	if res.Vals[1]&featureCoreGap == 0 {
		t.Fatal("core-gap feature bit missing from realm config")
	}
	if res.Vals[2] != 1 {
		t.Fatalf("vcpus = %d", res.Vals[2])
	}
}

func TestRSIMeasurementExtend(t *testing.T) {
	m, r := newActiveRealm(t, Config{})
	d := NewRSIDispatcher(m, r)
	before := r.Ledger().REM(1)
	res := d.Handle(smc.Call{FID: smc.RSIMeasurementExtend, Args: [6]uint64{1, 0xAA, 0xBB}})
	if res.Status != smc.StatusSuccess {
		t.Fatal(res.Status)
	}
	if r.Ledger().REM(1) == before {
		t.Fatal("REM not extended")
	}
	// Out-of-range REM index rejected.
	res = d.Handle(smc.Call{FID: smc.RSIMeasurementExtend, Args: [6]uint64{99, 0, 0}})
	if res.Status != smc.StatusErrorInput {
		t.Fatalf("bad REM index: %v", res.Status)
	}
}

func TestRSIAttestationStreaming(t *testing.T) {
	m, r := newActiveRealm(t, Config{CoreGapped: true})
	d := NewRSIDispatcher(m, r)

	res := d.Handle(smc.Call{FID: smc.RSIAttestTokenInit, Args: [6]uint64{0x1122334455667788}})
	if res.Status != smc.StatusSuccess || res.Vals[0] == 0 {
		t.Fatalf("token init: %+v", res)
	}
	total := int(res.Vals[0])
	streamed := 0
	for i := 0; i < 100; i++ {
		res = d.Handle(smc.Call{FID: smc.RSIAttestTokenCont})
		if res.Status != smc.StatusSuccess {
			t.Fatal(res.Status)
		}
		n := int(res.Vals[0])
		if n == 0 {
			break
		}
		streamed += n
	}
	if streamed != total {
		t.Fatalf("streamed %d of %d token bytes", streamed, total)
	}
	// Continue without init fails.
	d2 := NewRSIDispatcher(m, r)
	if res := d2.Handle(smc.Call{FID: smc.RSIAttestTokenCont}); res.Status != smc.StatusErrorInput {
		t.Fatalf("continue without init: %v", res.Status)
	}
}

func TestRSIUnknownAndBenign(t *testing.T) {
	m, r := newActiveRealm(t, Config{})
	d := NewRSIDispatcher(m, r)
	if res := d.Handle(smc.Call{FID: smc.FID(0x12)}); res.Status != smc.StatusErrorUnknown {
		t.Fatal("unknown RSI accepted")
	}
	if res := d.Handle(smc.Call{FID: smc.RSIIPAStateSet}); res.Status != smc.StatusSuccess {
		t.Fatal("ipa state set")
	}
	if res := d.Handle(smc.Call{FID: smc.RSIHostCall}); res.Status != smc.StatusSuccess {
		t.Fatal("host call")
	}
}
