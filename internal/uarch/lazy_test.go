package uarch

import (
	"math"
	"sync"
	"testing"

	"coregap/internal/sim"
)

// eagerTouch is the reference fill Touch defers: every structure, in
// kind order, draws each entry's tags from src at fill time (Float64 then
// Uint64 when secret-tagged, Uint64 alone otherwise).
func eagerTouch(bufs *[sharedKindsStart]*Buffer, d DomainID, footprint, secretFrac float64, src *sim.Source) {
	if footprint <= 0 {
		return
	}
	if footprint > 1 {
		footprint = 1
	}
	for k := StructKind(0); k < sharedKindsStart; k++ {
		b := bufs[k]
		n := int(footprint * float64(b.cap))
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			secret := secretFrac > 0 && src.Float64() < secretFrac
			b.Insert(Entry{Domain: d, Secret: secret, Tag: src.Uint64()})
		}
	}
}

func newEagerBufs() *[sharedKindsStart]*Buffer {
	var bufs [sharedKindsStart]*Buffer
	for k := range bufs {
		bufs[k] = NewBuffer(StructKind(k), defaultSizes[StructKind(k)])
	}
	return &bufs
}

func sameEntries(t *testing.T, what string, got, want []Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, eager %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, eager %+v", what, i, got[i], want[i])
		}
	}
}

// TestLazyMatchesEagerProperty drives two cores and the shared state,
// all on one tag stream, through a seeded random schedule of Touch,
// TouchShared, Residue, FlushDomain, Insert and Flush, against a
// reference that draws every entry at fill time. Deferred fills and
// deferred skips must be invisible: the same entries, Len and
// CountDomain after every step, and the same next stream draw.
func TestLazyMatchesEagerProperty(t *testing.T) {
	domains := []DomainID{DomainHost, DomainMonitor, Guest(0), Guest(1)}
	footprints := []float64{0, 0.001, 0.02, 0.08, 0.3, 0.7, 1, 1.2}
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		sched := sim.NewSource(1000 + seed)
		lazySrc, eagerSrc := sim.NewSource(seed), sim.NewSource(seed)
		lazy := []*CoreState{NewCoreState(), NewCoreState()}
		eager := []*[sharedKindsStart]*Buffer{newEagerBufs(), newEagerBufs()}
		lazyShared, eagerShared := NewSharedState(8192, 16), NewSharedState(8192, 16)
		pick := func() DomainID { return domains[sched.Intn(len(domains))] }
		for step := 0; step < 120; step++ {
			c := sched.Intn(2)
			k := StructKind(sched.Intn(int(sharedKindsStart)))
			lb, eb := lazy[c].bufs[k], eager[c][k]
			switch op := sched.Intn(10); {
			case op < 4:
				d, fp := pick(), footprints[sched.Intn(len(footprints))]
				frac := 0.0
				if sched.Intn(2) == 0 {
					frac = sched.Float64()
				}
				lazy[c].Touch(d, fp, frac, lazySrc)
				eagerTouch(eager[c], d, fp, frac, eagerSrc)
			case op == 4:
				d, fp, staging := pick(), 0.05*sched.Float64(), sched.Intn(2) == 0
				if le, ee := lazyShared.TouchShared(d, fp, staging, lazySrc),
					eagerShared.TouchShared(d, fp, staging, eagerSrc); le != ee {
					t.Fatalf("seed %d step %d: TouchShared evicted %d, eager %d", seed, step, le, ee)
				}
			case op == 5:
				r := pick()
				sameEntries(t, "Residue", lb.Residue(r), eb.Residue(r))
			case op == 6:
				d := pick()
				lb.FlushDomain(d)
				eb.FlushDomain(d)
			case op == 7:
				d := pick()
				le := lb.Insert(Entry{Domain: d, Tag: lazySrc.Uint64()})
				ee := eb.Insert(Entry{Domain: d, Tag: eagerSrc.Uint64()})
				if le != ee {
					t.Fatalf("seed %d step %d: Insert evicted %+v, eager %+v", seed, step, le, ee)
				}
			case op == 8:
				lb.Flush()
				eb.Flush()
			default:
				// Aggregates only: no materialization, no stream draw.
			}
			for ci := range lazy {
				for kk := StructKind(0); kk < sharedKindsStart; kk++ {
					l, e := lazy[ci].bufs[kk], eager[ci][kk]
					if l.Len() != e.Len() {
						t.Fatalf("seed %d step %d core %d %v: Len %d, eager %d", seed, step, ci, kk, l.Len(), e.Len())
					}
					for _, d := range domains {
						if lc, ec := l.CountDomain(d), e.CountDomain(d); lc != ec {
							t.Fatalf("seed %d step %d core %d %v: CountDomain(%v) %d, eager %d", seed, step, ci, kk, d, lc, ec)
						}
					}
				}
			}
		}
		for ci := range lazy {
			for k := StructKind(0); k < sharedKindsStart; k++ {
				l, e := lazy[ci].bufs[k], eager[ci][k]
				if l.pend > 0 {
					l.materialize()
				}
				sameEntries(t, k.String(), l.entries, e.entries)
				if l.next != e.next {
					t.Fatalf("seed %d core %d %v: next %d, eager %d", seed, ci, k, l.next, e.next)
				}
			}
		}
		if g, w := lazySrc.Uint64(), eagerSrc.Uint64(); g != w {
			t.Fatalf("seed %d: next tag draw %x, eager %x", seed, g, w)
		}
	}
}

// TestTouchDefersStream: Touch pays for neither the draws nor the jump.
// After N touches Mark still reports the original anchor with the summed
// lag, and the next draw equals the one the eager fills leave.
func TestTouchDefersStream(t *testing.T) {
	cs, src := NewCoreState(), sim.NewSource(8)
	eager, eagerSrc := newEagerBufs(), sim.NewSource(8)
	anchor, _ := src.Mark()
	var want uint64
	for i, fp := range []float64{0.1, 0.5, 0.02, 1, 0.3} {
		frac := 0.0
		if i%2 == 1 {
			frac = 0.4
		}
		cs.Touch(Guest(i%2), fp, frac, src)
		eagerTouch(eager, Guest(i%2), fp, frac, eagerSrc)
		per := uint64(1)
		if frac > 0 {
			per = 2
		}
		for k := StructKind(0); k < sharedKindsStart; k++ {
			want += per * uint64(max(1, int(math.Min(fp, 1)*float64(defaultSizes[k]))))
		}
	}
	if a, lag := src.Mark(); a != anchor || lag != want {
		t.Fatalf("Mark() = (%x, %d), want (%x, %d)", a, lag, anchor, want)
	}
	if g, w := src.Uint64(), eagerSrc.Uint64(); g != w {
		t.Fatalf("next draw %x, eager %x", g, w)
	}
}

// TestTouchZeroAllocs gates the hot path: a warmed core touches without
// allocating.
func TestTouchZeroAllocs(t *testing.T) {
	cs, src := NewCoreState(), sim.NewSource(1)
	fps := []float64{0.01, 0.3, 0.08, 0.7}
	i := 0
	touch := func() {
		cs.Touch(Guest(i%3), fps[i%len(fps)], float64(i%2)*0.5, src)
		i++
	}
	for j := 0; j < 1000; j++ {
		touch()
	}
	if avg := testing.AllocsPerRun(1000, touch); avg != 0 {
		t.Fatalf("Touch allocates %.2f times per call, want 0", avg)
	}
}

// TestWarmthStable: Warmth allocates nothing and repeated calls return
// bit-identical results.
func TestWarmthStable(t *testing.T) {
	cs, src := NewCoreState(), sim.NewSource(4)
	cs.Touch(Guest(0), 0.6, 0, src)
	cs.Touch(DomainHost, 0.37, 0, src)
	first := cs.Warmth(Guest(0))
	for i := 0; i < 100; i++ {
		if w := cs.Warmth(Guest(0)); math.Float64bits(w) != math.Float64bits(first) {
			t.Fatalf("call %d: Warmth %v, first %v", i, w, first)
		}
	}
	if avg := testing.AllocsPerRun(100, func() { cs.Warmth(Guest(0)) }); avg != 0 {
		t.Fatalf("Warmth allocates %.2f times per call, want 0", avg)
	}
}

// TestConcurrentMaterialize materializes buffers from several goroutines,
// each replaying at skip lengths of its own, so the process-wide jump
// state is shared between them (run under -race): the powers built
// once, memo reads, and memo publishes while the memo has room.
// TestJumpMemoConcurrent in internal/sim covers publishing from an
// empty memo. The serial reference runs after the concurrent ones.
func TestConcurrentMaterialize(t *testing.T) {
	const workers = 4
	run := func(w int) []Entry {
		cs, src := NewCoreState(), sim.NewSource(uint64(100+w))
		for i := 0; i < 6; i++ {
			cs.Touch(Guest(i%2), 0.05*float64(w+i+1), 0.5, src)
		}
		return cs.Buffer(L2).Residue(DomainHost)
	}
	got := make([][]Entry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run(w)
		}(w)
	}
	wg.Wait()
	for w := range got {
		sameEntries(t, "worker", got[w], run(w))
	}
}

func BenchmarkTouch(b *testing.B) {
	cs, src := NewCoreState(), sim.NewSource(1)
	fps := []float64{0.01, 0.3, 0.08, 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Touch(Guest(i%3), fps[i%len(fps)], float64(i%2)*0.5, src)
	}
}

// BenchmarkTouchResidue times a victim fill followed by an attacker's
// L1D read, which materializes the fill and resolves its jump.
func BenchmarkTouchResidue(b *testing.B) {
	cs, src := NewCoreState(), sim.NewSource(1)
	fps := []float64{0.01, 0.3, 0.08, 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Touch(Guest(i%3), fps[i%len(fps)], float64(i%2)*0.5, src)
		sink = len(cs.Buffer(L1D).Residue(Guest(7)))
	}
}

var sink int
