package uarch

import (
	"fmt"
	"math"
	"math/rand"
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
		n := max(1, int(footprint*float64(b.cap)))
		for i := 0; i < n; i++ {
			secret := secretFrac > 0 && src.Float64() < secretFrac
			b.Insert(Entry{Domain: d, Secret: secret, Tag: src.Uint64()})
		}
	}
}

// eagerTouchShared is the reference LLC fill TouchShared defers: one
// Insert per line, each drawing its tag at fill time.
func eagerTouchShared(ss *SharedState, d DomainID, footprint float64, usesStaging bool, src *sim.Source) (evicted int) {
	if footprint > 1 {
		footprint = 1
	}
	n := int(footprint * float64(ss.llc.Cap()) / float64(len(ss.wayOwner)))
	if free := ss.llc.Cap() - ss.llc.Len(); n > free {
		evicted = n - free
	}
	for i := 0; i < n; i++ {
		ss.llc.Insert(Entry{Domain: d, Tag: src.Uint64()})
	}
	if usesStaging {
		if ss.staging.Len() == ss.staging.Cap() {
			evicted++
		}
		ss.staging.Insert(Entry{Domain: d, Secret: true, Tag: src.Uint64()})
	}
	return evicted
}

// scanSecrets counts d's secret-tagged entries entry by entry.
func scanSecrets(entries []Entry, d DomainID) int {
	n := 0
	for _, e := range entries {
		if e.Domain == d && e.Secret {
			n++
		}
	}
	return n
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
// TouchShared, Residue, SecretCount, Insert and Flush —
// plus the partial-group and whole-group flushes of a core's shared
// fill log: FlushMitigations, FlushAll and Reset — against a reference
// that draws every entry at fill time, per-core fills and LLC fills
// alike. Deferred fills and deferred skips must be invisible: the same
// entries, Len and CountDomain after every step, the same SecretCount
// and Residue whenever they are read, and the same next stream draw.
//
// The footprints include NaN, +Inf, -1 and 2, and per-core fills draw
// half their footprints fresh, LLC fills all of them, so every log's
// shape table fills up mid-schedule: per-core logs then fold shapes out
// of it, and the LLC's, whose live records span many footprints, also
// grow it.
func TestLazyMatchesEagerProperty(t *testing.T) {
	domains := []DomainID{DomainHost, DomainMonitor, Guest(0), Guest(1)}
	footprints := []float64{0, 0.001, 0.02, 0.08, 0.3, 0.7, 1, 1.2, math.NaN(), math.Inf(1), -1, 2}
	rebuilds := 0
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
		sharedPairs := func() [2][2]*Buffer {
			return [2][2]*Buffer{{lazyShared.llc, eagerShared.llc}, {lazyShared.staging, eagerShared.staging}}
		}
		for step := 0; step < 160; step++ {
			c := sched.Intn(2)
			k := StructKind(sched.Intn(int(sharedKindsStart)))
			lb, eb := lazy[c].bufs[k], eager[c][k]
			switch op := sched.Intn(16); {
			case op < 4:
				d, fp := pick(), footprints[sched.Intn(len(footprints))]
				if sched.Intn(2) == 0 {
					fp = sched.Float64()
				}
				shapes := len(lazy[c].log.shapes)
				frac := 0.0
				if sched.Intn(2) == 0 {
					frac = sched.Float64()
				}
				lazy[c].Touch(d, fp, frac, lazySrc)
				eagerTouch(eager[c], d, fp, frac, eagerSrc)
				if len(lazy[c].log.shapes) < shapes {
					rebuilds++
				}
			case op < 6:
				d, fp, staging := pick(), 0.3*sched.Float64(), sched.Intn(2) == 0
				if le, ee := lazyShared.TouchShared(d, fp, staging, lazySrc),
					eagerTouchShared(eagerShared, d, fp, staging, eagerSrc); le != ee {
					t.Fatalf("seed %d step %d: TouchShared evicted %d, eager %d", seed, step, le, ee)
				}
			case op == 6:
				r := pick()
				sameEntries(t, "Residue", lb.Residue(r), eb.Residue(r))
			case op == 8:
				// Secret base entries under later plain fills exercise
				// SecretCount's window arithmetic.
				d, secret := pick(), sched.Intn(2) == 0
				if sched.Intn(2) == 0 {
					lb, eb = lazyShared.llc, eagerShared.llc
				}
				le := lb.Insert(Entry{Domain: d, Secret: secret, Tag: lazySrc.Uint64()})
				ee := eb.Insert(Entry{Domain: d, Secret: secret, Tag: eagerSrc.Uint64()})
				if le != ee {
					t.Fatalf("seed %d step %d: Insert evicted %+v, eager %+v", seed, step, le, ee)
				}
			case op == 9:
				if sched.Intn(2) == 0 {
					lb, eb = lazyShared.llc, eagerShared.llc
				}
				lb.Flush()
				eb.Flush()
			case op == 10:
				for ci := range lazy {
					for kk := StructKind(0); kk < sharedKindsStart; kk++ {
						l, e := lazy[ci].bufs[kk], eager[ci][kk]
						for _, d := range domains {
							if lc, ec := l.SecretCount(d), scanSecrets(e.entries, d); lc != ec {
								t.Fatalf("seed %d step %d core %d %v: SecretCount(%v) %d, eager scan %d", seed, step, ci, kk, d, lc, ec)
							}
						}
					}
				}
			case op == 11:
				r := pick()
				for _, p := range sharedPairs() {
					sameEntries(t, "shared "+p[0].kind.String()+" Residue", p[0].Residue(r), p[1].Residue(r))
				}
			case op == 13:
				lazy[c].FlushMitigations(DefaultFlushCosts())
				for _, kk := range mitigationKinds {
					eager[c][kk].Flush()
				}
			case op == 14:
				lazy[c].FlushAll(DefaultFlushCosts())
				for _, e := range eager[c] {
					e.Flush()
				}
			case op == 15:
				lazy[c].Reset()
				for _, e := range eager[c] {
					e.Reset()
				}
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
			// The LLC's runs are all plain, so its SecretCount is
			// arithmetic too and is checked on every step.
			for _, p := range sharedPairs() {
				l, e := p[0], p[1]
				if l.Len() != e.Len() {
					t.Fatalf("seed %d step %d %v: Len %d, eager %d", seed, step, l.kind, l.Len(), e.Len())
				}
				for _, d := range domains {
					if lc, ec := l.CountDomain(d), e.CountDomain(d); lc != ec {
						t.Fatalf("seed %d step %d %v: CountDomain(%v) %d, eager %d", seed, step, l.kind, d, lc, ec)
					}
					if lc, ec := l.SecretCount(d), scanSecrets(e.entries, d); lc != ec {
						t.Fatalf("seed %d step %d %v: SecretCount(%v) %d, eager scan %d", seed, step, l.kind, d, lc, ec)
					}
				}
			}
		}
		finals := []*Buffer{lazyShared.llc}
		eagers := []*Buffer{eagerShared.llc}
		for ci := range lazy {
			for k := StructKind(0); k < sharedKindsStart; k++ {
				finals = append(finals, lazy[ci].bufs[k])
				eagers = append(eagers, eager[ci][k])
			}
		}
		for i, l := range finals {
			e := eagers[i]
			l.sync()
			if l.pend > 0 {
				l.materialize()
			}
			sameEntries(t, l.kind.String(), l.entries, e.entries)
			if l.next != e.next {
				t.Fatalf("seed %d %v: next %d, eager %d", seed, l.kind, l.next, e.next)
			}
		}
		if g, w := lazySrc.Uint64(), eagerSrc.Uint64(); g != w {
			t.Fatalf("seed %d: next tag draw %x, eager %x", seed, g, w)
		}
	}
	if rebuilds == 0 {
		t.Fatal("no per-core fill log folded a shape out of its table")
	}
}

// TestTouchDefersStream checks that Touch pays for neither the draws
// nor the jump. After N touches Mark still reports the original anchor
// with the summed lag, and the next draw equals the one the eager fills
// leave.
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

// coverSpan reports how many of the log's newest records compaction
// keeps: those back to the first one at which their covers sum to one
// ring, or every record when they never do.
func coverSpan(l *fillLog) int {
	span, sum := 0, uint64(0)
	for i := len(l.fills) - 1; i >= 0 && sum < 1<<32; i-- {
		sum += l.shapes[l.fills[i].shape].cover
		span++
	}
	return span
}

// TestFillLogBounded: no buffer is charged or retired at push time, so
// only compaction bounds the log: a core's log must hold at most twice
// the longest cover span it has had, plus the record being pushed, over
// a long schedule that mixes tiny and whole-structure footprints,
// secret fills, partial flushes and reads that materialize one buffer.
func TestFillLogBounded(t *testing.T) {
	cs, src, sched := NewCoreState(), sim.NewSource(3), sim.NewSource(4)
	footprints := []float64{0.0005, 0.002, 0.02, 0.05, 0.35, 1}
	longest := 0
	const steps = 20000
	for step := 0; step < steps; step++ {
		switch op := sched.Intn(40); {
		case op == 0:
			cs.FlushMitigations(DefaultFlushCosts())
		case op == 1:
			cs.Buffer(StructKind(sched.Intn(int(sharedKindsStart)))).Residue(DomainHost)
		default:
			frac := 0.0
			if op%2 == 0 {
				frac = 0.5
			}
			cs.Touch(Guest(op%3), footprints[sched.Intn(len(footprints))], frac, src)
		}
		longest = max(longest, coverSpan(&cs.log))
		if n := len(cs.log.fills); n > 2*longest+1 {
			t.Fatalf("step %d: log holds %d records, longest cover span %d", step, n, longest)
		}
	}
	if n := cap(cs.log.fills); n >= steps/4 {
		t.Fatalf("log capacity %d after %d steps: records are not being dropped", n, steps)
	}
}

// TestTouchChargesNoBuffer: a Touch only appends its record. No buffer
// is charged for it until a reader asks that buffer, and the read
// charges that buffer alone.
func TestTouchChargesNoBuffer(t *testing.T) {
	cs, src := NewCoreState(), sim.NewSource(5)
	const touches = 50
	for i := 0; i < touches; i++ {
		cs.Touch(Guest(i%2), []float64{0.01, 0.3, 0.08}[i%3], float64(i%2)*0.5, src)
	}
	for _, b := range cs.bufs {
		if b.seen != 0 || b.pend != 0 {
			t.Fatalf("%v charged by Touch: seen %d, pend %d", b.kind, b.seen, b.pend)
		}
	}
	l1d := cs.Buffer(L1D)
	if l1d.Len() != l1d.Cap() || l1d.seen != touches {
		t.Fatalf("L1D after a read: Len %d of %d, seen %d, want %d", l1d.Len(), l1d.Cap(), l1d.seen, touches)
	}
	for _, b := range cs.bufs {
		if b != l1d && b.seen != 0 {
			t.Fatalf("reading L1D charged %v: seen %d", b.kind, b.seen)
		}
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

// TestTouchSharedZeroAllocs gates the LLC's fill log the same way: a
// warmed SharedState fills the LLC and the staging buffer without
// allocating.
func TestTouchSharedZeroAllocs(t *testing.T) {
	ss, src := NewSharedState(8192, 16), sim.NewSource(1)
	fps := []float64{0.05, 0.3, 0.002, 1}
	i := 0
	touch := func() {
		ss.TouchShared(Guest(i%3), fps[i%len(fps)], i%2 == 0, src)
		i++
	}
	for j := 0; j < 1000; j++ {
		touch()
	}
	if avg := testing.AllocsPerRun(1000, touch); avg != 0 {
		t.Fatalf("TouchShared allocates %.2f times per call, want 0", avg)
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

// BenchmarkTouchManyCores touches 64 cores in rotation at footprints
// 0.35, 0.02 and 0.05, as a 63-core Fig. 6 sweep does, so a core's fill
// state has left the cache by the time it is touched again — which
// BenchmarkTouch, with one core always resident, never sees.
func BenchmarkTouchManyCores(b *testing.B) {
	cores := make([]*CoreState, 64)
	for i := range cores {
		cores[i] = NewCoreState()
	}
	src := sim.NewSource(1)
	fps := []float64{0.35, 0.02, 0.05}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cores[i%len(cores)].Touch(Guest(i%3), fps[i%len(fps)], 0, src)
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

// TestTouchNMatchesTouches: TouchN(n) leaves every per-core structure,
// the domain-switch count and the tag stream exactly as n Touch calls
// in a row, across random runs of footprints (some repeated many times
// so the log compacts mid-batch), secret fractions and reads.
func TestTouchNMatchesTouches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	batched, single := NewCoreState(), NewCoreState()
	bsrc, ssrc := sim.NewSource(9), sim.NewSource(9)
	fps := []float64{0.25, 0.01, 0.7, 1.5, 0, 0.25}
	for i := 0; i < 400; i++ {
		d := Guest(rng.Intn(3))
		if rng.Intn(3) == 0 {
			d = DomainHost
		}
		fp := fps[rng.Intn(len(fps))]
		frac := float64(rng.Intn(2)) * 0.4
		n := rng.Intn(12)
		batched.TouchN(d, fp, frac, bsrc, n)
		for j := 0; j < n; j++ {
			single.Touch(d, fp, frac, ssrc)
		}
		if rng.Intn(20) == 0 {
			for _, k := range PerCoreKinds() {
				sameEntries(t, fmt.Sprintf("step %d %v", i, k),
					batched.Buffer(k).Residue(Guest(99)), single.Buffer(k).Residue(Guest(99)))
			}
		}
	}
	for _, k := range PerCoreKinds() {
		sameEntries(t, k.String(), batched.Buffer(k).Residue(Guest(99)), single.Buffer(k).Residue(Guest(99)))
	}
	if batched.DomainSwitches() != single.DomainSwitches() || batched.LastDomain() != single.LastDomain() {
		t.Fatalf("domain switches %d/%v, want %d/%v", batched.DomainSwitches(), batched.LastDomain(),
			single.DomainSwitches(), single.LastDomain())
	}
	if b, s := bsrc.Uint64(), ssrc.Uint64(); b != s {
		t.Fatalf("tag stream diverged: next draw %x, want %x", b, s)
	}
}
