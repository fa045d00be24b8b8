// Package sim provides a deterministic discrete-event simulation engine
// with nanosecond resolution.
//
// All higher-level models in this repository (hardware, firmware, host OS,
// devices, workloads) are built on this engine. Determinism is guaranteed
// by a strict (time, sequence) ordering of events and by requiring all
// randomness to flow through seeded Source values obtained from the engine.
package sim

import (
	"fmt"
	"math"
)

// Time is an absolute simulation timestamp in nanoseconds since the start
// of the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a time later than any reachable simulation instant.
const Forever Time = math.MaxInt64

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return fmtDuration(Duration(t)) }

// Seconds reports d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports d as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

func (d Duration) String() string { return fmtDuration(d) }

func fmtDuration(d Duration) string {
	switch {
	case d < 0:
		return "-" + fmtDuration(-d)
	case d < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fus", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(Second))
	}
}

// Event is a cancellation handle for a scheduled callback, returned by
// the scheduling methods so callers can cancel pending events (for
// example when a timer is re-armed or a compute slice is preempted).
//
// The handle is a value: it pairs the engine-owned queue node with the
// node's generation at scheduling time. Nodes are recycled through a
// free list once fired or cancelled, so a handle can outlive its event;
// the generation check makes such stale handles inert — Pending reports
// false and Cancel is a no-op even after the node has been reused for
// an unrelated later event. The zero Event is a valid "no event" handle.
type Event struct {
	n   *event
	gen uint32
}

// valid reports whether the handle still refers to the event it was
// created for (the node has not been recycled since).
func (e Event) valid() bool { return e.n != nil && e.gen == e.n.gen }

// Time reports when the event will fire. Once the event has fired or
// been cancelled the association is gone and Time reports 0.
func (e Event) Time() Time {
	if !e.valid() {
		return 0
	}
	return e.n.at
}

// Label reports the diagnostic label given at scheduling time ("" once
// the event has fired or been cancelled).
func (e Event) Label() string {
	if !e.valid() {
		return ""
	}
	return e.n.label
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool { return e.valid() && e.n.index != -1 }

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	q       heapQueue // pending events (heap.go)
	free    []*event  // recycled nodes; At/After allocate nothing in steady state
	seed    uint64
	sources map[string]*Source

	fired uint64 // queued events executed so far

	// The chain: one owner's run of events that never enter the queue
	// (see SetChain). chainAt is Forever when none is set.
	chainAt  Time
	chainSeq uint64
	chainFn  func(until Time, untilSeq uint64) Time

	// Observability: nil tracer / empty bank when disabled, so the
	// scheduling hot path pays one branch each. See tracer.go and
	// counter.go.
	trc    *Tracer
	counts []uint64
}

// NewEngine returns an engine whose clock starts at zero and whose random
// sources derive from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{seed: seed, sources: make(map[string]*Source), chainAt: Forever}
}

// Reset rewinds the engine to its just-constructed state for a new seed
// while keeping every backing allocation: the heap's array, the node
// free list, and all named sources (reseeded in place, so holders of a
// *Source keep a valid pointer to the fresh deterministic stream). A
// pooled engine therefore reaches steady state with no per-trial
// allocation, and a reset engine is observationally identical to
// NewEngine(seed) — Source(name) streams depend only on (seed, name),
// never on creation order or prior use.
//
// Events still queued are discarded; their handles are invalidated by
// the generation bump exactly as if they had been cancelled.
func (e *Engine) Reset(seed uint64) {
	for _, ev := range e.q.h {
		ev.index = -1
		e.recycle(ev)
	}
	e.q.h = e.q.h[:0]
	e.now = 0
	e.seq = 0
	e.seed = seed
	e.fired = 0
	e.chainAt, e.chainSeq, e.chainFn = Forever, 0, nil
	e.trc = nil
	clear(e.counts)
	for name, s := range e.sources {
		s.reseed(mix(seed, hashString(name)))
	}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// EventsFired reports how many queued events have executed so far;
// chain events (SetChain) are not counted.
func (e *Engine) EventsFired() uint64 { return e.fired }

// Reserve takes the next sequence number without queueing anything, as
// Timer.Defer does. An owner that fires some of its events without
// queueing them (SetChain) reserves the numbers those events would have
// taken, so that everything else is numbered exactly as if they had been
// queued; AtReserved later queues an event under a reserved number.
func (e *Engine) Reserve() uint64 {
	e.seq++
	return e.seq
}

// AtReserved schedules fn at t under seq, a number Reserve took
// earlier: the event fires among those at t exactly where one queued at
// the time of the reservation would have. label and fn follow At's
// rules.
func (e *Engine) AtReserved(t Time, seq uint64, label string, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, e.now))
	}
	return e.queue(t, seq, label, fn)
}

// SetChain declares the next event of the engine's chain: an event at
// (at, seq) in the (time, sequence) order of the queue, seq being a
// number Reserve took, that never enters the queue. When it comes due,
// the engine calls fn(until, untilSeq) with the clock at at: fn fires
// it, and may go on to fire the chain's later events that still precede
// (until, untilSeq), the next queued event or the limit of the run. It
// reports the time of the last one it fired, and declares the chain's
// next event in turn, or ends the chain with at = Forever.
//
// A chain is a long run of events whose effects the owner can apply
// more cheaply than a queue round trip each, and in batches (the host
// kernel's idle poll slices): each fires at its exact place among the
// queued events, so ties at one instant resolve as if it had been
// queued. There is one chain per engine. Chain events are not counted
// by EventsFired.
func (e *Engine) SetChain(at Time, seq uint64, fn func(until Time, untilSeq uint64) Time) {
	e.chainAt, e.chainSeq, e.chainFn = at, seq, fn
}

// chainDue reports whether the chain's next event precedes next (nil:
// the queue is empty). The caller has checked that a chain is set.
func (e *Engine) chainDue(next *event) bool {
	return next == nil || e.chainAt < next.at || (e.chainAt == next.at && e.chainSeq < next.seq)
}

// chainBy reports whether the chain's next event is due by t and
// precedes next.
func (e *Engine) chainBy(t Time, next *event) bool {
	return e.chainAt <= t && e.chainAt != Forever && e.chainDue(next)
}

// fireChain fires the chain's events that precede both next (nil: none)
// and (t, tSeq).
func (e *Engine) fireChain(next *event, t Time, tSeq uint64) {
	if next != nil && (next.at < t || (next.at == t && next.seq < tSeq)) {
		t, tSeq = next.at, next.seq
	}
	e.now = e.chainAt
	e.now = e.chainFn(t, tSeq)
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modelling bug.
//
// The label names the kind of event, not the instance: it must be a
// static string (a constant or a label held by the owner), never one
// built per call with fmt or concatenation — the tracer records it as
// the scheduled event's detail, and the per-event path must not
// allocate (see tracer.go). Likewise fn should be bound once per owner
// (a method value stored in a field, or a Thunks binding when it
// carries a payload) rather than a closure built per event.
func (e *Engine) At(t Time, label string, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, e.now))
	}
	e.seq++
	return e.queue(t, e.seq, label, fn)
}

// queue pushes fn at (t, seq): At's seq, just taken, or one a deferred
// Timer reserved earlier.
func (e *Engine) queue(t Time, seq uint64, label string, fn func()) Event {
	ev := e.alloc()
	ev.at = t
	ev.seq = seq
	ev.fn = fn
	ev.label = label
	e.q.push(ev)
	if e.trc != nil {
		e.trc.EmitDetail(TCEngine, "sched", label, LaneGlobal, int64(ev.seq))
	}
	return Event{n: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now. Negative d is clamped
// to zero. label and fn follow At's rules.
func (e *Engine) After(d Duration, label string, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), label, fn)
}

// Cancel removes a pending event. Cancelling a fired, cancelled, stale
// or zero handle is a no-op, so callers need not track event lifetimes
// precisely.
func (e *Engine) Cancel(ev Event) {
	n := ev.n
	if n == nil || n.gen != ev.gen || n.index == -1 {
		return
	}
	if e.trc != nil {
		e.trc.EmitDetail(TCEngine, "cancel", n.label, LaneGlobal, int64(n.seq))
	}
	e.q.remove(n)
	e.recycle(n)
}

// Step executes the next queued event, or the chain events before it,
// advancing the clock. It reports false when no events remain.
func (e *Engine) Step() bool {
	if e.chainAt != Forever {
		if m := e.q.peek(); e.chainDue(m) {
			e.fireChain(m, Forever, math.MaxUint64)
			return true
		}
	}
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire executes ev, just popped from the queue.
func (e *Engine) fire(ev *event) {
	if ev.at < e.now {
		panic("sim: event queue corrupted (time went backwards)")
	}
	e.now = ev.at
	e.fired++
	fn := ev.fn
	if e.trc != nil {
		e.trc.EmitDetail(TCEngine, "fire", ev.label, LaneGlobal, int64(ev.seq))
	}
	// Recycle before running fn: the callback may schedule follow-up
	// events, and handing it this node keeps the pool at its
	// steady-state size. The generation bump has already invalidated
	// the fired event's own handle.
	e.recycle(ev)
	fn()
}

// Run executes events until the queue is empty. A chain that never ends
// runs on, as a self-rearming queued event would.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (if it has not already passed it). Events scheduled exactly at t run.
func (e *Engine) RunUntil(t Time) {
	for {
		m := e.q.peek()
		if e.chainBy(t, m) {
			e.fireChain(m, t, math.MaxUint64)
			continue
		}
		if m == nil || m.at > t {
			break
		}
		e.fire(e.q.pop())
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the clock by d. See RunUntil.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// StepUntil executes the next queued event if it is due by t, first
// firing the chain events ordered before it, and reports true. It
// reports false, having fired only chain events, when no queued event is
// due by t or a chain event brings the clock to t: stepping one event
// at a time while the clock is before t stops at the same point.
func (e *Engine) StepUntil(t Time) bool {
	for {
		m := e.q.peek()
		if e.chainBy(t, m) {
			// Chain events before t, or the first one at t.
			if e.chainAt < t {
				e.fireChain(m, t, 0)
			} else {
				e.fireChain(m, t, e.chainSeq+1)
			}
			if e.now >= t {
				return false
			}
			continue
		}
		if m == nil || m.at > t {
			return false
		}
		e.fire(e.q.pop())
		return true
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.q.h) }

// NextEventTime reports the timestamp of the earliest event, chained or
// queued, or Forever when there is none.
func (e *Engine) NextEventTime() Time {
	at := e.chainAt
	if m := e.q.peek(); m != nil && m.at < at {
		at = m.at
	}
	return at
}

// Source returns a named deterministic random source. The same (seed, name)
// pair always yields the same stream, independent of the order in which
// sources are created or used relative to one another.
func (e *Engine) Source(name string) *Source {
	if s, ok := e.sources[name]; ok {
		return s
	}
	s := NewSource(mix(e.seed, hashString(name)))
	e.sources[name] = s
	return s
}
