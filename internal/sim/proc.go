package sim

import "fmt"

// Timer is a re-armable one-shot timer bound to an engine. It wraps the
// cancel-and-reschedule pattern used pervasively by periodic hardware
// timers and watchdogs in the models.
type Timer struct {
	eng    *Engine
	ev     Event
	label  string
	fn     func()
	fireFn func() // t.fire, bound once so Arm allocates nothing
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

// Disarm cancels a pending expiry, if any.
func (t *Timer) Disarm() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// Deadline reports when the timer will fire; valid only when Pending.
func (t *Timer) Deadline() Time {
	if !t.Pending() {
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
