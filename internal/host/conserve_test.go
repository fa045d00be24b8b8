package host

import (
	"fmt"
	"math/rand"
	"testing"

	"coregap/internal/hw"
	"coregap/internal/sim"
)

// TestOfflineDuringStealKeepsWork: taking a core away in the middle of an
// IRQ steal must keep the remaining work StealCPU saved for the
// interrupted thread and charge it no CPU for the steal. The item ran
// 100 µs on core 0 and sat 20 µs in the steal, so it migrates with 900
// µs left.
func TestOfflineDuringStealKeepsWork(t *testing.T) {
	eng, _, k := newKernel(t, 2)
	th := k.NewThread("w", ClassNormal, 0)
	done, doneCore := sim.Time(-1), hw.NoCore
	k.Submit(th, "job", 1000*sim.Microsecond, func() { done, doneCore = eng.Now(), th.Core() })
	handled := 0
	eng.At(sim.Time(100*sim.Microsecond), "steal", func() {
		k.StealCPU(0, 50*sim.Microsecond, func() { handled++ })
	})
	eng.At(sim.Time(120*sim.Microsecond), "offline", func() {
		if err := k.OfflineCore(0, nil); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if doneCore != 1 || done < sim.Time(1020*sim.Microsecond) {
		t.Fatalf("item done at %v on core %d; want >= 1020µs on core 1", done, doneCore)
	}
	if th.CPUTime() != 1000*sim.Microsecond {
		t.Fatalf("cpu time %v, want 1000µs", th.CPUTime())
	}
	if handled != 1 {
		t.Fatalf("steal handler ran %d times", handled)
	}
}

// conserveItem is one submitted work item of the conservation harness.
type conserveItem struct {
	th        *Thread
	submit    sim.Time
	work      sim.Duration
	stalled   sim.Duration // time it sat on its core through IRQ steals
	completed int
	dropped   bool // killed before completing (or submitted to a dead thread)
}

// conserveRun drives one seeded random schedule of Submit, StealCPU
// (nested too), OfflineCore/OnlineCore, Kill and SetIdlePoll on a 1–4
// core kernel, then drains it and checks host work conservation.
type conserveRun struct {
	t    *testing.T
	seed int64
	eng  *sim.Engine
	mach *hw.Machine
	k    *Kernel
	rng  *rand.Rand

	threads []*Thread
	pending map[*Thread][]*conserveItem // submitted, not completed, not dropped
	items   []*conserveItem
	// pollWork is the completed poll-slice work per thread.
	pollWork map[*Thread]sim.Duration
	// killed maps each killed thread to the work of the items it was
	// executing when killed, which it may have partly done.
	killed map[*Thread]sim.Duration
	// steal is the open outermost steal per core and the submitted item
	// it interrupted (nil for an idle core or a poll slice).
	steal map[hw.CoreID]*openSteal
}

type openSteal struct {
	start sim.Time
	item  *conserveItem
}

func (r *conserveRun) fail(format string, args ...any) {
	r.t.Helper()
	r.t.Fatalf("seed %d at %v: %s", r.seed, r.eng.Now(), fmt.Sprintf(format, args...))
}

// current reports the submitted item t is executing, or nil when it is
// between items, in a poll slice or in a poller's wake-up item.
func (r *conserveRun) current(t *Thread) *conserveItem {
	if t == nil || t.cur == nil || t.cur.label != "item" {
		return nil
	}
	return r.pending[t][0]
}

// closeSteal ends core c's open steal, charging its interrupted item
// for the time it sat through.
func (r *conserveRun) closeSteal(c hw.CoreID) {
	if s := r.steal[c]; s != nil {
		if s.item != nil {
			s.item.stalled += r.eng.Now().Sub(s.start)
		}
		delete(r.steal, c)
	}
}

// check asserts the scheduler's structural invariants: no thread is
// current on two cores, a current thread is Running there, the executor
// runs exactly when a thread is current outside a steal, and no core
// the kernel or the machine holds offline runs anything.
func (r *conserveRun) check() {
	r.t.Helper()
	seen := map[*Thread]hw.CoreID{}
	for id, cs := range r.k.cores {
		busy := r.mach.Core(id).Exec.Busy()
		if t := cs.cur; t != nil {
			if prev, dup := seen[t]; dup {
				r.fail("thread %s current on cores %d and %d", t.name, prev, id)
			}
			seen[t] = id
			if t.state != Running || t.core != id {
				r.fail("core %d current thread %s is %v on core %d", id, t.name, t.state, t.core)
			}
		}
		if busy != (cs.cur != nil && !cs.stealing) {
			r.fail("core %d executor busy=%v with cur=%v stealing=%v", id, busy, cs.cur != nil, cs.stealing)
		}
		if (cs.offline || r.mach.Core(id).Power() != hw.Online) && (busy || cs.cur != nil) {
			r.fail("offline core %d (kernel offline=%v, power %v) runs %s", id, cs.offline, r.mach.Core(id).Power(), cs.cur.name)
		}
		if !cs.offline && r.mach.Core(id).Power() != hw.Online && len(cs.fifoQ)+len(cs.normQ) > 0 {
			r.fail("core %d online in the kernel but %v in hardware, with threads queued", id, r.mach.Core(id).Power())
		}
	}
	for _, t := range r.threads {
		if t.state == Running {
			if _, ok := seen[t]; !ok {
				r.fail("thread %s Running but current on no core", t.name)
			}
		}
	}
}

func (r *conserveRun) submit(t *Thread) {
	it := &conserveItem{th: t, submit: r.eng.Now(), work: sim.Duration(1+r.rng.Intn(300)) * sim.Microsecond}
	r.items = append(r.items, it)
	if t.state == Dead {
		it.dropped = true
	} else {
		r.pending[t] = append(r.pending[t], it)
	}
	r.k.Submit(t, "item", it.work, func() {
		if it.dropped {
			r.fail("dropped item of %s completed", t.name)
		}
		if r.pending[t][0] != it {
			r.fail("item of %s completed out of order", t.name)
		}
		r.pending[t] = r.pending[t][1:]
		it.completed++
		if min := it.submit.Add(it.work + it.stalled); r.eng.Now() < min {
			r.fail("item of %s (work %v, stalled %v) submitted at %v completed before %v",
				t.name, it.work, it.stalled, it.submit, min)
		}
		if cs := r.k.cores[t.core]; cs.offline || r.mach.Core(t.core).Power() != hw.Online {
			r.fail("item of %s completed on offline core %d", t.name, t.core)
		}
	})
}

// stealCPU starts an IRQ steal on core c. Only the outermost steal of a
// nest stalls the core: a nested one runs its handler after its cost
// while the interrupted thread resumes (StealCPU), so it adds nothing to
// an item's lower bound.
func (r *conserveRun) stealCPU(c hw.CoreID) {
	cs := r.k.cores[c]
	cost := sim.Duration(1+r.rng.Intn(60)) * sim.Microsecond
	if !cs.stealing {
		r.steal[c] = &openSteal{start: r.eng.Now(), item: r.current(cs.cur)}
	}
	outer := !cs.stealing
	r.k.StealCPU(c, cost, func() {
		if outer {
			r.closeSteal(c)
		}
	})
}

func (r *conserveRun) kill(t *Thread) {
	for c, s := range r.steal {
		if s.item != nil && s.item.th == t {
			r.closeSteal(c)
		}
	}
	for _, it := range r.pending[t] {
		it.dropped = true
	}
	r.pending[t] = nil
	var partial sim.Duration
	if t.cur != nil {
		partial = t.cur.work
	}
	r.killed[t] += partial
	r.k.Kill(t)
}

func (r *conserveRun) setPoll(t *Thread, on bool) {
	if !on {
		r.k.SetIdlePoll(t, nil)
		return
	}
	slice := sim.Duration(5+r.rng.Intn(20)) * sim.Microsecond
	r.k.SetIdlePoll(t, func() (sim.Duration, func()) {
		return slice, func() { r.pollWork[t] += slice }
	})
	// A poller needs one wake-up to start spinning.
	if t.state == Blocked {
		r.k.Submit(t, "seed", 0, nil)
	}
}

func runConserve(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine(uint64(seed))
	cores := 1 + rng.Intn(4)
	mach := hw.NewMachine(eng, hw.DefaultConfig(cores))
	k := NewKernel(mach)
	k.SetQuantum(sim.Duration(50+rng.Intn(200)) * sim.Microsecond)
	r := &conserveRun{t: t, seed: seed, eng: eng, mach: mach, k: k, rng: rng,
		pending: map[*Thread][]*conserveItem{}, pollWork: map[*Thread]sim.Duration{},
		killed: map[*Thread]sim.Duration{}, steal: map[hw.CoreID]*openSteal{}}
	for i := 0; i < 1+rng.Intn(5); i++ {
		class := ClassNormal
		if rng.Intn(3) == 0 {
			class = ClassFIFO
		}
		pin := hw.NoCore
		if rng.Intn(2) == 0 {
			pin = hw.CoreID(rng.Intn(cores))
		}
		r.threads = append(r.threads, k.NewThread(fmt.Sprintf("t%d", i), class, pin))
	}

	const horizon = 4 * sim.Millisecond
	for i := 0; i < 20+rng.Intn(60); i++ {
		at := sim.Time(rng.Int63n(int64(horizon)))
		th := r.threads[rng.Intn(len(r.threads))]
		c := hw.CoreID(rng.Intn(cores))
		var op func()
		switch x := rng.Intn(20); {
		case x < 8:
			op = func() { r.submit(th) }
		case x < 12:
			op = func() { r.stealCPU(c) }
		case x == 12:
			op = func() { r.stealCPU(c); r.stealCPU(c) } // nested
		case x < 15:
			op = func() {
				if r.k.cores[c].offline {
					return
				}
				if r.k.OfflineCore(c, nil) == nil {
					r.closeSteal(c)
				}
			}
		case x < 17:
			op = func() { r.k.OnlineCore(c) }
		case x == 17:
			op = func() { r.kill(th) }
		default:
			on := rng.Intn(2) == 0
			op = func() { r.setPoll(th, on) }
		}
		eng.At(at, "op", func() { op(); r.check() })
	}
	// Sample the invariants between operations too.
	var tick func()
	tick = func() {
		r.check()
		if eng.Now() < sim.Time(horizon) {
			eng.After(7*sim.Microsecond, "tick", tick)
		}
	}
	eng.After(0, "tick", tick)
	eng.RunUntil(sim.Time(horizon))

	// Drain: stop polling and run every remaining item to completion.
	for _, th := range r.threads {
		k.SetIdlePoll(th, nil)
	}
	eng.Run()
	r.check()

	for i, it := range r.items {
		switch {
		case it.dropped && it.completed != 0:
			r.fail("item %d of %s dropped yet completed", i, it.th.name)
		case !it.dropped && it.completed != 1:
			r.fail("item %d of %s (work %v) completed %d times", i, it.th.name, it.work, it.completed)
		}
	}
	for _, th := range r.threads {
		if th.state != Blocked && th.state != Dead {
			r.fail("thread %s %v after drain", th.name, th.state)
		}
	}
	for _, th := range r.threads {
		var done sim.Duration
		for _, it := range r.items {
			if it.th == th && it.completed == 1 {
				done += it.work
			}
		}
		done += r.pollWork[th]
		if slack, ok := r.killed[th]; ok {
			// Killed mid-item: the partial slice counts, the rest never ran.
			if th.CPUTime() < done || th.CPUTime() > done+slack {
				r.fail("killed thread %s cpu time %v outside [%v, %v]", th.name, th.CPUTime(), done, done+slack)
			}
			continue
		}
		if th.CPUTime() != done {
			r.fail("thread %s cpu time %v, completed work %v", th.name, th.CPUTime(), done)
		}
	}
}

// TestHostWorkConservationProperty runs seeded random schedules of
// Submit, StealCPU (nested too), OfflineCore/OnlineCore, Kill and
// SetIdlePoll on 1–4 cores and checks host work conservation: every
// item completes exactly once unless Kill dropped it, none completes
// before its submit time plus its work plus the steals it sat through,
// a thread's CPU time equals the work it completed, no thread is
// current on two cores, and no offline core runs anything.
func TestHostWorkConservationProperty(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= seeds; seed++ {
		runConserve(t, seed)
	}
}
