package sim

import (
	"fmt"
	"testing"
)

// The queue's two tiers must be invisible: every schedule fires in the
// (at, seq) order one heap gives. TestTwoTierMatchesOneHeap drives the
// engine and a reference — one sorted pending set, scanned for its
// minimum — through the same random scripts and compares what fires,
// when, and what Pending and NextEventTime report after every step.

// schedAPI is what a script can do: the engine's API, over either
// the engine or the reference. Events are named by script-wide ids.
type schedAPI interface {
	now() Time
	at(t Time, id int)
	reserve() uint64
	atReserved(t Time, seq uint64, id int)
	cancel(id int)
	step() bool
	runUntil(t Time)
	stepUntil(t Time) bool
	reset()
	pending() int
	nextTime() Time
	// startChain starts a chain of n events period apart, the first at
	// now+period, unless one is running.
	startChain(n int)
	log() []string
}

const chainPeriod = 700

// followUp is the delay after which event id, when it fires, schedules
// a follow-up (every third id does), so that events are also queued
// from inside callbacks, against a clock that has moved.
func followUp(id int) (Duration, bool) {
	return queueDeltas[id%len(queueDeltas)], id%3 == 0
}

// queueDeltas mixes near deltas, both sides of the horizon and far ones.
var queueDeltas = []Duration{
	0, 1, 129, 700, 5000, farHorizon - 1, farHorizon, farHorizon + 1,
	2 * farHorizon, Millisecond, 19 * Millisecond, 189 * Millisecond,
}

// engRunner runs a script on the engine.
type engRunner struct {
	e      *Engine
	evs    map[int]Event
	fired  []string
	nextID int

	chainLeft int
	chainAt   Time
	chainFn   func(until Time, untilSeq uint64) Time
}

func newEngRunner() *engRunner {
	d := &engRunner{e: NewEngine(1), evs: map[int]Event{}, nextID: 1 << 20}
	d.chainFn = d.advance
	return d
}

func (d *engRunner) now() Time { return d.e.Now() }

func (d *engRunner) at(t Time, id int) {
	d.evs[id] = d.e.At(t, "q", func() { d.fire(id) })
}

func (d *engRunner) reserve() uint64 { return d.e.Reserve() }

func (d *engRunner) atReserved(t Time, seq uint64, id int) {
	d.evs[id] = d.e.AtReserved(t, seq, "r", func() { d.fire(id) })
}

func (d *engRunner) fire(id int) {
	d.fired = append(d.fired, fmt.Sprintf("%d@%d", id, d.e.Now()))
	if dt, ok := followUp(id); ok {
		d.nextID++
		d.at(d.e.Now().Add(dt), d.nextID)
	}
}

func (d *engRunner) cancel(id int) { d.e.Cancel(d.evs[id]) }

func (d *engRunner) step() bool            { return d.e.Step() }
func (d *engRunner) runUntil(t Time)       { d.e.RunUntil(t) }
func (d *engRunner) stepUntil(t Time) bool { return d.e.StepUntil(t) }
func (d *engRunner) pending() int          { return d.e.Pending() }
func (d *engRunner) nextTime() Time        { return d.e.NextEventTime() }
func (d *engRunner) log() []string         { return d.fired }

func (d *engRunner) reset() {
	d.e.Reset(1)
	d.chainLeft = 0
}

func (d *engRunner) startChain(n int) {
	if d.chainLeft > 0 {
		return
	}
	d.chainLeft = n
	d.chainAt = d.e.Now().Add(chainPeriod)
	d.e.SetChain(d.chainAt, d.e.Reserve(), d.chainFn)
}

// advance fires the chain's events that precede (until, untilSeq),
// first the one due, reserving each next one's number as it goes.
func (d *engRunner) advance(until Time, untilSeq uint64) Time {
	for {
		last := d.chainAt
		d.fired = append(d.fired, fmt.Sprintf("chain@%d", last))
		if d.chainLeft--; d.chainLeft == 0 {
			d.e.SetChain(Forever, 0, nil)
			return last
		}
		d.chainAt = last.Add(chainPeriod)
		seq := d.e.Reserve()
		if d.chainAt > until || (d.chainAt == until && seq > untilSeq) {
			d.e.SetChain(d.chainAt, seq, d.chainFn)
			return last
		}
	}
}

// refRunner runs a script on the reference: one pending set, in which
// chain events are queued events too.
type refRunner struct {
	clock  Time
	seq    uint64
	evs    []refEvent
	fired  []string
	nextID int

	chainLeft int
}

type refEvent struct {
	at  Time
	seq uint64
	id  int // -1 for a chain event
}

const chainID = -1

func (r *refRunner) now() Time { return r.clock }

func (r *refRunner) at(t Time, id int) {
	r.seq++
	r.evs = append(r.evs, refEvent{t, r.seq, id})
}

func (r *refRunner) reserve() uint64 {
	r.seq++
	return r.seq
}

func (r *refRunner) atReserved(t Time, seq uint64, id int) {
	r.evs = append(r.evs, refEvent{t, seq, id})
}

func (r *refRunner) cancel(id int) {
	for i, ev := range r.evs {
		if ev.id == id {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return
		}
	}
}

// min reports the index of the earliest pending event, -1 when none.
func (r *refRunner) min() int {
	best := -1
	for i, ev := range r.evs {
		if b := best; b < 0 || ev.at < r.evs[b].at || (ev.at == r.evs[b].at && ev.seq < r.evs[b].seq) {
			best = i
		}
	}
	return best
}

// fireMin fires the earliest event, reporting whether it was queued
// (not a chain event).
func (r *refRunner) fireMin() bool {
	i := r.min()
	ev := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	r.clock = ev.at
	if ev.id == chainID {
		r.fired = append(r.fired, fmt.Sprintf("chain@%d", ev.at))
		if r.chainLeft--; r.chainLeft > 0 {
			r.at(ev.at.Add(chainPeriod), chainID)
		}
		return false
	}
	r.fired = append(r.fired, fmt.Sprintf("%d@%d", ev.id, ev.at))
	if dt, ok := followUp(ev.id); ok {
		r.nextID++
		r.at(r.clock.Add(dt), r.nextID)
	}
	return true
}

// step fires the next queued event, or every chain event before it.
func (r *refRunner) step() bool {
	if len(r.evs) == 0 {
		return false
	}
	if !r.fireMin() {
		for i := r.min(); i >= 0 && r.evs[i].id == chainID; i = r.min() {
			r.fireMin()
		}
	}
	return true
}

func (r *refRunner) runUntil(t Time) {
	for i := r.min(); i >= 0 && r.evs[i].at <= t; i = r.min() {
		r.fireMin()
	}
	r.clock = max(r.clock, t)
}

// stepUntil steps one event at a time while the clock is before t,
// stopping after the first queued event.
func (r *refRunner) stepUntil(t Time) bool {
	for {
		i := r.min()
		if i < 0 || r.evs[i].at > t {
			return false
		}
		if r.fireMin() {
			return true
		}
		if r.clock >= t {
			return false
		}
	}
}

func (r *refRunner) reset() {
	r.clock, r.seq, r.evs, r.chainLeft = 0, 0, r.evs[:0], 0
}

func (r *refRunner) pending() int {
	n := len(r.evs)
	if r.chainLeft > 0 {
		n--
	}
	return n
}

func (r *refRunner) nextTime() Time {
	if i := r.min(); i >= 0 {
		return r.evs[i].at
	}
	return Forever
}

func (r *refRunner) startChain(n int) {
	if r.chainLeft > 0 {
		return
	}
	r.chainLeft = n
	r.at(r.clock.Add(chainPeriod), chainID)
}

func (r *refRunner) log() []string { return r.fired }

// reservation is a number Reserve took, to be queued at at.
type reservation struct {
	at  Time
	seq uint64
}

// runScript drives d through a script drawn from seed, checking Pending
// and NextEventTime after every operation against want (nil: record
// them). It reports those observations.
func runScript(t *testing.T, d schedAPI, seed uint64, want []string) []string {
	t.Helper()
	src := NewSource(seed)
	var obs []string
	var held []reservation
	issued := 0
	delta := func() Duration { return queueDeltas[src.Intn(len(queueDeltas))] }
	for op := 0; op < 400; op++ {
		var what string
		switch k := src.Intn(20); {
		case k < 7:
			issued++
			d.at(d.now().Add(delta()), issued)
			what = "at"
		case k < 9:
			if issued > 0 {
				d.cancel(1 + src.Intn(issued))
			}
			what = "cancel"
		case k < 10:
			held = append(held, reservation{d.now().Add(delta()), d.reserve()})
			what = "reserve"
		case k < 11:
			// Queue the oldest reservation, unless the clock passed it.
			if len(held) > 0 {
				if r := held[0]; r.at >= d.now() {
					issued++
					d.atReserved(r.at, r.seq, issued)
				}
				held = held[1:]
			}
			what = "commit"
		case k < 13:
			what = fmt.Sprint("step ", d.step())
		case k < 15:
			d.runUntil(d.now().Add(delta()))
			what = "rununtil"
		case k < 17:
			what = fmt.Sprint("stepuntil ", d.stepUntil(d.now().Add(delta())))
		case k < 18:
			d.startChain(1 + src.Intn(40))
			what = "chain"
		default:
			if src.Intn(4) == 0 {
				d.reset()
				held = held[:0]
				what = "reset"
			}
		}
		o := fmt.Sprintf("%d %s: now %d pending %d next %d", op, what, d.now(), d.pending(), d.nextTime())
		if want != nil && (len(obs) >= len(want) || o != want[len(obs)]) {
			t.Fatalf("seed %d: after op %d the engine reads %q, one heap %q", seed, op, o, want[len(obs)])
		}
		obs = append(obs, o)
	}
	d.runUntil(d.now().Add(Second))
	return obs
}

func TestTwoTierMatchesOneHeap(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		ref := &refRunner{nextID: 1 << 20}
		want := runScript(t, ref, seed, nil)
		eng := newEngRunner()
		runScript(t, eng, seed, want)
		got, exp := eng.log(), ref.log()
		for i := range min(len(got), len(exp)) {
			if got[i] != exp[i] {
				t.Fatalf("seed %d: fire %d is %s, one heap fires %s", seed, i, got[i], exp[i])
			}
		}
		if len(got) != len(exp) {
			t.Fatalf("seed %d: %d fires, one heap makes %d", seed, len(got), len(exp))
		}
	}
}

// TestQueueTierBoundary pins the horizon's edge and the operations that
// cross tiers: an event due exactly farHorizon ahead is near, one
// nanosecond later is far; a far event cancels; Reset with both tiers
// populated leaves nothing pending and keeps both arrays.
func TestQueueTierBoundary(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(1000)
	var order []int
	mark := func(i int) func() { return func() { order = append(order, i) } }
	edge := e.After(farHorizon, "edge", mark(0))
	past := e.After(farHorizon+1, "past", mark(1))
	gone := e.After(farHorizon+1, "gone", mark(2))
	if edge.n.far || !past.n.far {
		t.Fatalf("tiers: at now+H far=%v, at now+H+1 far=%v; want near, far", edge.n.far, past.n.far)
	}
	e.Cancel(gone)
	if gone.Pending() || e.Pending() != 2 || len(e.q.far.h) != 1 {
		t.Fatalf("after cancelling a far event: pending %d, far tier %d", e.Pending(), len(e.q.far.h))
	}
	// A near event queued later that falls between the two still fires
	// in (at, seq) order with the far one.
	e.RunUntil(1000 + Time(farHorizon))
	e.After(1, "between", mark(3))
	e.Run()
	if fmt.Sprint(order) != "[0 1 3]" {
		t.Fatalf("fired %v, want [0 1 3]", order)
	}

	e.After(1, "near", mark(4))
	e.After(Second, "far", mark(5))
	nearCap, farCap := cap(e.q.near.h), cap(e.q.far.h)
	e.Reset(2)
	if e.Pending() != 0 || e.NextEventTime() != Forever {
		t.Fatalf("after Reset: pending %d, next %v", e.Pending(), e.NextEventTime())
	}
	if cap(e.q.near.h) != nearCap || cap(e.q.far.h) != farCap {
		t.Fatal("Reset dropped a tier's backing array")
	}
	e.Run()
	if len(order) != 3 {
		t.Fatalf("events queued before Reset fired: %v", order)
	}
}

// BenchmarkFarTimers replays the shape of the workloads' queue: many
// far timers that rarely fire (each gapped vCPU's residual-exit timers,
// exponential with 19 and 189 ms means) under a few near events that
// fire all the time (5 µs ticks and sub-µs execution slices). Every
// fire re-arms its own event, as the models' timers do.
func BenchmarkFarTimers(b *testing.B) {
	e := NewEngine(1)
	src := e.Source("bench")
	for i := 0; i < 64; i++ {
		for _, mean := range []Duration{19 * Millisecond, 189 * Millisecond} {
			var fn func()
			fn = func() { e.After(src.Exp(mean), "residual", fn) }
			e.After(src.Exp(mean), "residual", fn)
		}
	}
	for i := 0; i < 8; i++ {
		var tick, exec func()
		tick = func() { e.After(5*Microsecond, "tick", tick) }
		exec = func() { e.After(Duration(100+src.Intn(1500)), "exec", exec) }
		e.After(Duration(src.Intn(5000)), "tick", tick)
		e.After(Duration(src.Intn(1500)), "exec", exec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("queue ran dry")
		}
	}
}
