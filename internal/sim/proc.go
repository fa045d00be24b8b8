package sim

import "fmt"

// Timer is a re-armable one-shot timer bound to an engine. It wraps the
// cancel-and-reschedule pattern used pervasively by periodic hardware
// timers and watchdogs in the models.
//
// A timer can also be deferred: Defer takes the expiry's place in the
// schedule order without queueing it, and Commit queues it only once the
// owner knows it can fire. An owner that usually disarms the timer
// before it expires, as a scheduler does with a quantum that outlasts
// the slice it guards, then pays no queue operation for the expiries
// that never fire, while those that do fire at the (time, seq) an Arm
// at Defer time would have given them.
type Timer struct {
	eng    *Engine
	ev     Event
	label  string
	fn     func()
	fireFn func() // t.fire, bound once so Arm allocates nothing

	// A deferred expiry is reserved at (at, seq) but not queued.
	deferred bool
	at       Time
	seq      uint64
}

// NewTimer returns an unarmed timer that will invoke fn when it fires.
// The label is the expiry event's static name (see At): one label per
// kind of timer, never one built per instance.
func NewTimer(eng *Engine, label string, fn func()) *Timer {
	t := &Timer{eng: eng, label: label, fn: fn}
	t.fireFn = t.fire
	return t
}

func (t *Timer) fire() {
	t.ev = Event{}
	t.fn()
}

// Arm (re)schedules the timer to fire after d. Any previously pending
// expiry is cancelled.
func (t *Timer) Arm(d Duration) {
	t.Disarm()
	t.ev = t.eng.After(d, t.label, t.fireFn)
}

// Defer arms the timer to fire after d without queueing the expiry: it
// takes the expiry's sequence number now, exactly where Arm would, and
// leaves the queueing to Commit. Any previously pending expiry is
// cancelled.
func (t *Timer) Defer(d Duration) {
	t.Disarm()
	t.eng.seq++
	t.deferred, t.at, t.seq = true, t.eng.now.Add(max(d, 0)), t.eng.seq
}

// DeferReserved leaves the timer deferred to expire at at under seq, a
// number Engine.Reserve took: the state Defer would have left had it run
// when seq was reserved. Any previously pending expiry is cancelled.
func (t *Timer) DeferReserved(at Time, seq uint64) {
	t.Disarm()
	t.deferred, t.at, t.seq = true, at, seq
}

// Commit queues a deferred expiry that falls at or before until, under
// the sequence number Defer reserved. A later one stays deferred; the
// owner must Commit again before until passes.
func (t *Timer) Commit(until Time) {
	if t.deferred && t.at <= until {
		t.deferred = false
		t.ev = t.eng.queue(t.at, t.seq, t.label, t.fireFn)
	}
}

// Disarm cancels a pending expiry, if any. A deferred expiry was never
// queued, so disarming it touches no queue.
func (t *Timer) Disarm() {
	t.deferred = false
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Pending reports whether the timer is armed, deferred or queued.
func (t *Timer) Pending() bool { return t.deferred || t.ev.Pending() }

// Deadline reports when the timer will fire; valid only when Pending.
func (t *Timer) Deadline() Time {
	if t.deferred {
		return t.at
	}
	if !t.ev.Pending() {
		return Forever
	}
	return t.ev.Time()
}

// Ticker invokes fn every period, starting one period from Start.
// Unlike two chained Timers, it guarantees no drift: ticks fire at
// start+k*period exactly.
type Ticker struct {
	eng    *Engine
	label  string
	period Duration
	next   Time
	ev     Event
	fn     func()
	tickFn func() // t.tick, bound once so each tick allocates nothing
}

// NewTicker returns a stopped ticker. Like NewTimer's, the label is a
// static event name.
func NewTicker(eng *Engine, label string, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: ticker %q with period %v", label, period))
	}
	t := &Ticker{eng: eng, label: label, period: period, fn: fn}
	t.tickFn = t.tick
	return t
}

// Start begins ticking. The first tick fires one period from now.
func (t *Ticker) Start() {
	t.Stop()
	t.next = t.eng.Now().Add(t.period)
	t.schedule()
}

func (t *Ticker) schedule() {
	t.ev = t.eng.At(t.next, t.label, t.tickFn)
}

func (t *Ticker) tick() {
	t.next = t.next.Add(t.period)
	t.schedule()
	t.fn()
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.ev.Pending() }

// Period reports the tick interval.
func (t *Ticker) Period() Duration { return t.period }
