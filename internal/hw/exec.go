package hw

import (
	"fmt"

	"coregap/internal/sim"
)

// Executor runs at most one compute context on a core at a time, with
// preemption. Work is measured in nanoseconds of full-speed execution;
// the owner may run it at a reduced speed factor to model cold
// microarchitectural state after interference.
//
// The executor is mechanism only: host scheduler and RMM decide what runs
// and at which speed.
type Executor struct {
	eng  *sim.Engine
	core *Core

	running   bool
	label     string
	remaining sim.Duration
	speed     float64
	startedAt sim.Time
	ev        sim.Event
	onDone    func()
	doneFn    func() // x.complete, bound once so schedule allocates nothing

	busySince sim.Time
	busyTotal sim.Duration
}

func newExecutor(eng *sim.Engine, core *Core) *Executor {
	x := &Executor{eng: eng, core: core, speed: 1}
	x.doneFn = x.complete
	return x
}

// reset idles the executor and zeroes its accounting for a new trial.
// Any pending completion event belongs to the engine's previous life
// and was discarded by the engine's own Reset.
func (x *Executor) reset() {
	x.running = false
	x.label = ""
	x.remaining = 0
	x.speed = 1
	x.startedAt = 0
	x.ev = sim.Event{}
	x.onDone = nil
	x.busySince = 0
	x.busyTotal = 0
}

// Busy reports whether a context is currently running.
func (x *Executor) Busy() bool { return x.running }

// Label reports the running context's label ("" when idle).
func (x *Executor) Label() string {
	if !x.running {
		return ""
	}
	return x.label
}

// BusyTime reports the cumulative time this core spent executing.
func (x *Executor) BusyTime() sim.Duration {
	total := x.busyTotal
	if x.running {
		total += x.eng.Now().Sub(x.busySince)
	}
	return total
}

// Utilization reports BusyTime divided by elapsed simulation time.
func (x *Executor) Utilization() float64 {
	now := x.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(x.BusyTime()) / float64(now)
}

// Start begins executing `work` nanoseconds of compute at the given speed
// factor (1.0 = full speed); onDone fires when the work completes. It
// panics if the executor is already busy — owners must Preempt first;
// double-dispatch always indicates a scheduling bug worth failing loudly.
//
// label names the kind of context ("guest", "scan", ...) and must be a
// static string, as for sim.Engine.At; onDone should be bound once per
// owner, not built per slice. The completion event itself is labelled
// "exec".
func (x *Executor) Start(label string, work sim.Duration, speed float64, onDone func()) {
	if x.running {
		panic(fmt.Sprintf("hw: core %d executor busy with %q, cannot start %q",
			x.core.id, x.label, label))
	}
	if speed <= 0 {
		panic("hw: non-positive speed factor")
	}
	if work < 0 {
		work = 0
	}
	x.running = true
	x.label = label
	x.remaining = work
	x.speed = speed
	x.startedAt = x.eng.Now()
	x.busySince = x.eng.Now()
	x.onDone = onDone
	x.ev = x.eng.After(sim.Duration(float64(work)/speed), "exec", x.doneFn)
}

// End reports when the running context completes if nothing preempts
// it; valid only while Busy.
func (x *Executor) End() sim.Time { return x.ev.Time() }

func (x *Executor) complete() {
	x.ev = sim.Event{}
	x.busyTotal += x.eng.Now().Sub(x.busySince)
	x.running = false
	done := x.onDone
	x.onDone = nil
	if done != nil {
		done()
	}
}

// consumed reports how much work has been executed since startedAt.
func (x *Executor) consumed() sim.Duration {
	elapsed := x.eng.Now().Sub(x.startedAt)
	return sim.Duration(float64(elapsed) * x.speed)
}

// Preempt stops the running context and reports the work remaining; the
// onDone callback will not fire. Preempting an idle executor returns 0.
func (x *Executor) Preempt() sim.Duration {
	if !x.running {
		return 0
	}
	x.eng.Cancel(x.ev)
	x.ev = sim.Event{}
	done := x.consumed()
	if done > x.remaining {
		done = x.remaining
	}
	x.remaining -= done
	x.busyTotal += x.eng.Now().Sub(x.busySince)
	x.running = false
	x.onDone = nil
	return x.remaining
}
