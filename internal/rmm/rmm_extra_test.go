package rmm

import (
	"errors"
	"testing"

	"coregap/internal/granule"
	"coregap/internal/sim"
	"coregap/internal/smc"
	"coregap/internal/uarch"
)

func TestAccessorsAndMetadata(t *testing.T) {
	f := newFixture(t, Config{CoreGapped: true, DelegateTimer: true})
	if !f.m.Config().CoreGapped {
		t.Fatal("monitor accessors")
	}
	r := f.newRealm(t, 2)
	if r.Params().VCPUs != 2 {
		t.Fatal("params accessor")
	}
	rec, _ := f.m.recCreate(r, f.alloc(t))
	if len(r.recs) != 1 || r.recs[0] != rec || rec.Realm() != r {
		t.Fatal("rec accessors")
	}
	if f.m.DedicatedCount() != 0 {
		t.Fatal("dedicated count")
	}
	f.m.dedicateCore(3)
	if f.m.DedicatedCount() != 1 {
		t.Fatal("dedicated count after dedicate")
	}
	// The lifecycle counts land in the engine's counter bank.
	eng := f.mach.Engine()
	for id, want := range map[sim.CounterID]uint64{cRealmCreate: 1, cRECCreate: 1, cCoreDedicate: 1, cCoreReclaim: 0} {
		if got := eng.CounterValue(id); got != want {
			t.Errorf("%s = %d, want %d", sim.CounterName(id), got, want)
		}
	}
}

func TestRebindRecValidation(t *testing.T) {
	f := newFixture(t, Config{CoreGapped: true})
	r := f.newRealm(t, 2)
	rec0, _ := f.m.recCreate(r, f.alloc(t))
	rec1, _ := f.m.recCreate(r, f.alloc(t))
	f.m.activate(r)
	f.m.dedicateCore(2)
	f.m.dedicateCore(3)
	if err := f.m.CheckEnter(rec0, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.m.CheckEnter(rec1, 3); err != nil {
		t.Fatal(err)
	}

	// Rebind to a core bound to another REC: refused.
	if err := f.m.rebindRec(rec0, 3); !errors.Is(err, ErrCoreInUse) {
		t.Fatalf("rebind to bound core: %v", err)
	}
	// Rebind to a non-dedicated core: refused.
	if err := f.m.rebindRec(rec0, 5); !errors.Is(err, ErrCoreNotDedicated) {
		t.Fatalf("rebind to host core: %v", err)
	}
	// Valid rebind.
	f.m.dedicateCore(4)
	// Make the old core's state dirty first; the rebind must wipe it.
	f.mach.Core(2).RecordExecution(r.Domain(), 0.5, 0.5)
	if err := f.m.rebindRec(rec0, 4); err != nil {
		t.Fatal(err)
	}
	if rec0.BoundCore() != 4 || f.m.BoundRec(4) != rec0 || f.m.BoundRec(2) != nil {
		t.Fatal("binding table after rebind")
	}
	if res := f.mach.Core(2).Uarch.ResidueFor(uarch.DomainHost); len(res) != 0 {
		t.Fatalf("old core not wiped: %d structures dirty", len(res))
	}
	// No-op rebind is fine; destroyed REC refused; shared-mode refused.
	if err := f.m.rebindRec(rec0, 4); err != nil {
		t.Fatal(err)
	}
	f.m.recDestroy(rec0)
	if err := f.m.rebindRec(rec0, 4); !errors.Is(err, ErrBadRec) {
		t.Fatalf("rebind destroyed rec: %v", err)
	}
	fs := newFixture(t, Config{})
	rs := fs.newRealm(t, 1)
	recS, _ := fs.m.recCreate(rs, fs.alloc(t))
	if err := fs.m.rebindRec(recS, 1); !errors.Is(err, ErrCoreNotDedicated) {
		t.Fatalf("shared-mode rebind: %v", err)
	}
}

func TestHandleResolvers(t *testing.T) {
	f := newABIFixture(t, Config{CoreGapped: true})
	rd, recs := f.buildRealm(t, 1)
	r, rec := f.m.Realm(granule.PA(rd)), f.m.Rec(granule.PA(recs[0]))
	if r == nil || rec == nil || rec.Realm() != r {
		t.Fatal("handle resolution")
	}
	if f.m.Realm(0xdead000) != nil || f.m.Rec(0xdead000) != nil {
		t.Fatal("bogus handles resolved")
	}
	// Destroy retires both handles.
	if res := f.call(smc.RMIRealmDestroy, rd); res.Status != smc.StatusSuccess {
		t.Fatalf("destroy: %v", res.Status)
	}
	if f.m.Realm(granule.PA(rd)) != nil || f.m.Rec(granule.PA(recs[0])) != nil {
		t.Fatal("destroyed handles still resolve")
	}
}

func TestDataCreateOnDestroyedRealm(t *testing.T) {
	f := newFixture(t, Config{})
	r := f.newRealm(t, 1)
	f.m.activate(r)
	f.m.destroy(r)
	if err := f.m.dataCreate(r, 0, f.alloc(t)); !errors.Is(err, ErrBadRealm) {
		t.Fatalf("data create on destroyed realm: %v", err)
	}
}
