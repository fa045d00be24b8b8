package uarch

import (
	"testing"
	"testing/quick"

	"coregap/internal/sim"
)

func TestDomainStrings(t *testing.T) {
	cases := map[DomainID]string{
		DomainNone:    "none",
		DomainHost:    "host",
		DomainMonitor: "monitor",
		Guest(0):      "guest0",
		Guest(7):      "guest7",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", d, got, want)
		}
	}
	if DomainID(50).String() != "domain50" {
		t.Error("unknown domain string")
	}
}

func TestTrustRelation(t *testing.T) {
	g0, g1 := Guest(0), Guest(1)
	if !g0.Trusts(g0) || !g0.Trusts(DomainMonitor) {
		t.Fatal("guest must trust itself and the monitor")
	}
	if g0.Trusts(DomainHost) || g0.Trusts(g1) {
		t.Fatal("guest must not trust host or other guests")
	}
	if DomainHost.Trusts(g0) {
		t.Fatal("host must not trust guests")
	}
	if !DomainHost.Trusts(DomainMonitor) {
		t.Fatal("host trusts the attested monitor")
	}
}

func TestIsGuest(t *testing.T) {
	if DomainHost.IsGuest() || DomainMonitor.IsGuest() {
		t.Fatal("host/monitor are not guests")
	}
	if !Guest(0).IsGuest() {
		t.Fatal("Guest(0) is a guest")
	}
}

func TestKindSharing(t *testing.T) {
	if L1D.Shared() || BTB.Shared() || FillBuffer.Shared() {
		t.Fatal("per-core kind reported shared")
	}
	if !LLC.Shared() || !Staging.Shared() {
		t.Fatal("shared kind reported per-core")
	}
	per, shared := PerCoreKinds(), SharedKinds()
	if len(per) == 0 || len(shared) == 0 {
		t.Fatal("kind enumeration empty")
	}
	for _, k := range per {
		if k.Shared() {
			t.Fatalf("%v in PerCoreKinds but shared", k)
		}
		if k.String() == "" {
			t.Fatalf("%v has no name", int(k))
		}
	}
	for _, k := range shared {
		if !k.Shared() {
			t.Fatalf("%v in SharedKinds but per-core", k)
		}
	}
}

func TestBufferFIFOEviction(t *testing.T) {
	b := NewBuffer(L1D, 3)
	for i := uint64(1); i <= 3; i++ {
		if ev := b.Insert(Entry{Domain: DomainHost, Tag: i}); ev.Domain != DomainNone {
			t.Fatal("eviction before full")
		}
	}
	ev := b.Insert(Entry{Domain: DomainHost, Tag: 4})
	if ev.Tag != 1 {
		t.Fatalf("evicted tag %d, want 1 (FIFO)", ev.Tag)
	}
	ev = b.Insert(Entry{Domain: DomainHost, Tag: 5})
	if ev.Tag != 2 {
		t.Fatalf("evicted tag %d, want 2", ev.Tag)
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3", b.Len())
	}
}

func TestBufferResidue(t *testing.T) {
	b := NewBuffer(FillBuffer, 8)
	b.Insert(Entry{Domain: Guest(0), Secret: true, Tag: 1})
	b.Insert(Entry{Domain: Guest(0), Secret: false, Tag: 2})
	b.Insert(Entry{Domain: DomainHost, Tag: 3})
	b.Insert(Entry{Domain: DomainMonitor, Tag: 4})

	// Host samples: sees guest residue (guest does not trust host), but
	// monitor residue is trusted-only in the other direction — monitor
	// does not trust host either, so its residue is also visible risk.
	res := b.Residue(DomainHost)
	if len(res) != 3 {
		t.Fatalf("host sees %d residue entries, want 3", len(res))
	}
	sec := b.SecretResidue(DomainHost)
	if len(sec) != 1 || sec[0].Tag != 1 {
		t.Fatalf("secret residue = %+v", sec)
	}

	// The monitor is trusted by everyone: no entry is residue for it.
	if res := b.Residue(DomainMonitor); len(res) != 0 {
		t.Fatalf("monitor sees %d residue entries, want 0", len(res))
	}

	// Guest 1 sampling sees guest 0, host, and monitor residue.
	if res := b.Residue(Guest(1)); len(res) != 4 {
		t.Fatalf("guest1 sees %d residue entries, want 4", len(res))
	}
}

func TestBufferFlush(t *testing.T) {
	b := NewBuffer(StoreBuffer, 4)
	b.Insert(Entry{Domain: Guest(0), Tag: 1})
	b.Insert(Entry{Domain: DomainHost, Tag: 2})
	b.Flush()
	if b.Len() != 0 {
		t.Fatal("flush left entries")
	}
	if len(b.Residue(DomainHost)) != 0 {
		t.Fatal("flush left residue")
	}
}

func TestBufferOccupancy(t *testing.T) {
	b := NewBuffer(L1D, 10)
	for i := 0; i < 5; i++ {
		b.Insert(Entry{Domain: Guest(0)})
	}
	if got := b.Occupancy(Guest(0)); got != 0.5 {
		t.Fatalf("occupancy = %v, want 0.5", got)
	}
}

func TestBufferInvariantsProperty(t *testing.T) {
	src := sim.NewSource(5)
	f := func(ops []bool) bool {
		b := NewBuffer(DTLB, 16)
		for _, ins := range ops {
			if ins {
				b.Insert(Entry{Domain: Guest(src.Intn(3)), Tag: src.Uint64()})
			} else {
				b.Flush()
			}
			if b.Len() > b.Cap() {
				return false
			}
			total := 0
			for g := 0; g < 3; g++ {
				total += b.CountDomain(Guest(g))
			}
			if total != b.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreStateTouchAndWarmth(t *testing.T) {
	cs := NewCoreState()
	src := sim.NewSource(1)
	cs.Touch(Guest(0), 1.0, 0, src)
	if w := cs.Warmth(Guest(0)); w < 0.95 {
		t.Fatalf("full touch warmth = %v, want ~1", w)
	}
	if w := cs.Warmth(DomainHost); w != 0 {
		t.Fatalf("host warmth = %v, want 0", w)
	}
	// Host runs with a moderate footprint: guest warmth must drop.
	cs.Touch(DomainHost, 0.5, 0, src)
	if w := cs.Warmth(Guest(0)); w > 0.9 {
		t.Fatalf("guest warmth after host interference = %v, want < 0.9", w)
	}
	if cs.LastDomain() != DomainHost {
		t.Fatal("LastDomain not updated")
	}
	if cs.DomainSwitches() != 1 {
		t.Fatalf("switches = %d, want 1", cs.DomainSwitches())
	}
}

func TestCoreStateSecretTagging(t *testing.T) {
	cs := NewCoreState()
	src := sim.NewSource(2)
	cs.Touch(Guest(0), 0.5, 1.0, src) // everything secret
	res := cs.Buffer(FillBuffer).SecretResidue(DomainHost)
	if len(res) == 0 {
		t.Fatal("secret touch left no secret residue in fill buffers")
	}
}

func TestCoreStateFlushAll(t *testing.T) {
	cs := NewCoreState()
	src := sim.NewSource(3)
	cs.Touch(Guest(0), 1.0, 0.5, src)
	cost := cs.FlushAll(DefaultFlushCosts())
	if cost <= 0 {
		t.Fatal("flush cost must be positive")
	}
	if res := cs.ResidueFor(DomainHost); len(res) != 0 {
		t.Fatalf("residue after FlushAll: %v", res)
	}
}

func TestCoreStateFlushMitigations(t *testing.T) {
	cs := NewCoreState()
	src := sim.NewSource(4)
	cs.Touch(Guest(0), 1.0, 1.0, src)
	cs.FlushMitigations(DefaultFlushCosts())
	// Mitigation flushes clear buffers (MDS-class) but NOT the L1D/TLB —
	// the retroactive, partial nature of real mitigations (§2.1).
	if cs.Buffer(FillBuffer).Len() != 0 || cs.Buffer(StoreBuffer).Len() != 0 {
		t.Fatal("mitigation flush left MDS buffers")
	}
	if cs.Buffer(L1D).Len() == 0 {
		t.Fatal("mitigation flush unexpectedly cleared L1D")
	}
}

func TestSharedStateStagingCrossCore(t *testing.T) {
	ss := NewSharedState(8192, 16)
	src := sim.NewSource(6)
	// Guest 0 executes RDRAND-class instructions on *its own* core.
	ss.TouchShared(Guest(0), 0.1, true, src)
	// Host on a different core can still sample the staging buffer:
	// this is CrossTalk, the one cross-core exception (§2.2).
	if res := ss.Staging().SecretResidue(DomainHost); len(res) == 0 {
		t.Fatal("staging buffer must leak cross-core (CrossTalk)")
	}
}

func TestLLCPartitioning(t *testing.T) {
	ss := NewSharedState(8192, 16)
	if ss.Partitioned() {
		t.Fatal("partitioning on by default")
	}
	if !ss.LLCObservable(Guest(0), DomainHost) {
		t.Fatal("unpartitioned LLC must be observable")
	}
	ss.EnablePartitioning()
	if !ss.AssignWays(Guest(0), 4) || !ss.AssignWays(DomainHost, 4) {
		t.Fatal("way assignment failed")
	}
	if ss.AssignWays(Guest(1), 16) {
		t.Fatal("over-assignment must fail")
	}
	if ss.LLCObservable(Guest(0), DomainHost) {
		t.Fatal("partitioned LLC must not be observable cross-domain")
	}
	if !ss.LLCObservable(Guest(0), Guest(0)) {
		t.Fatal("domain must observe itself")
	}
}

// TestAssignWaysRejectsNegative: a negative way count is refused and
// assigns nothing, rather than handing d every free way.
func TestAssignWaysRejectsNegative(t *testing.T) {
	ss := NewSharedState(1024, 16)
	if !ss.AssignWays(Guest(0), 4) {
		t.Fatal("assigning 4 of 16 free ways failed")
	}
	if ss.AssignWays(Guest(1), -1) {
		t.Fatal("AssignWays(-1) succeeded")
	}
	for i, o := range ss.wayOwner {
		if o == Guest(1) {
			t.Fatalf("way %d assigned to %v by AssignWays(-1)", i, o)
		}
	}
	if !ss.AssignWays(Guest(1), 12) {
		t.Fatal("the 12 remaining ways are no longer free")
	}
}

func TestFlushCostsComplete(t *testing.T) {
	costs := DefaultFlushCosts()
	for _, k := range PerCoreKinds() {
		if _, ok := costs[k]; !ok {
			t.Errorf("no flush cost for %v", k)
		}
	}
}

// TestFillMatchesSequentialInsert pins the bulk-fill fast path to the
// reference semantics: identical Source consumption and identical final
// ring state as entry-by-entry Insert, across growth, wrap-around and
// secret-tagging cases. The lazy side records each round in a one-buffer
// fill log, exactly as Touch records a batch, with a footprint whose
// entry count is the round's length. Any divergence here breaks
// byte-identical reproduction, not just performance.
func TestFillMatchesSequentialInsert(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cap        int
		rounds     []int
		secretFrac float64
	}{
		{"grow-only", 64, []int{10, 20}, 0},
		{"wrap", 16, []int{10, 40, 7}, 0},
		{"exact-cap", 32, []int{32, 32}, 0},
		{"secret-wrap", 16, []int{10, 40, 7}, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := NewBuffer(L1D, tc.cap)
			refSrc := sim.NewSource(99)
			fast := NewBuffer(L1D, tc.cap)
			fastSrc := sim.NewSource(99)
			log := &fillLog{bufs: []*Buffer{fast}}
			fast.log = log
			for r, n := range tc.rounds {
				d := Guest(r)
				for i := 0; i < n; i++ {
					secret := tc.secretFrac > 0 && refSrc.Float64() < tc.secretFrac
					ref.Insert(Entry{Domain: d, Secret: secret, Tag: refSrc.Uint64()})
				}
				// Record the lazy fill and advance the stream exactly as
				// Touch does for its batch. Every capacity is a power of
				// two, so n/cap × cap is exactly n.
				frac, per := -1.0, uint64(1)
				if tc.secretFrac > 0 {
					frac, per = tc.secretFrac, 2
				}
				anchor, lag := fastSrc.Mark()
				got := log.push(fill{anchor: anchor, lag: lag, frac: frac, domain: d}, float64(n)/float64(tc.cap))
				if got != n {
					t.Fatalf("round %d: fill of %d entries, want %d", r, got, n)
				}
				fastSrc.Skip(per * uint64(n))
				// Aggregates must agree while fills are still pending.
				if ref.Len() != fast.Len() {
					t.Fatalf("round %d: lazy Len %d, eager %d", r, fast.Len(), ref.Len())
				}
				for probe := 0; probe <= r; probe++ {
					if rc, fc := ref.CountDomain(Guest(probe)), fast.CountDomain(Guest(probe)); rc != fc {
						t.Fatalf("round %d: lazy CountDomain(%v) %d, eager %d", r, Guest(probe), fc, rc)
					}
				}
			}
			fast.materialize()
			if ref.next != fast.next || len(ref.entries) != len(fast.entries) {
				t.Fatalf("ring state diverged: next %d/%d len %d/%d",
					ref.next, fast.next, len(ref.entries), len(fast.entries))
			}
			for i := range ref.entries {
				if ref.entries[i] != fast.entries[i] {
					t.Fatalf("entry %d diverged: %+v vs %+v", i, ref.entries[i], fast.entries[i])
				}
			}
			if refSrc.Uint64() != fastSrc.Uint64() {
				t.Fatal("random stream position diverged")
			}
		})
	}
}
