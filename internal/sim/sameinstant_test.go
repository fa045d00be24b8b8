package sim

import (
	"fmt"
	"testing"
)

// Tests for events that share a timestamp. These pin the semantics the
// rest of the repo relies on — (at, seq) FIFO order, cancellation of a
// later sibling, Pending/NextEventTime visibility part-way through a
// same-instant run, and Reset with pending ties.

// TestSameInstantFIFO: a storm of events at one timestamp fires in
// schedule order, interleaved correctly with events a callback schedules
// at that same timestamp mid-storm (higher seq: they fire after the
// original run).
func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	at := Time(100)
	for i := 0; i < 8; i++ {
		i := i
		e.At(at, "storm", func() {
			got = append(got, i)
			if i == 2 {
				// Scheduled mid-storm at the same instant: must fire
				// after the pre-existing run, in schedule order.
				e.At(at, "late", func() { got = append(got, 100) })
				e.At(at, "late", func() { got = append(got, 101) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fire order %v, want %v", got, want)
	}
	if e.Now() != at {
		t.Errorf("now = %v, want %v", e.Now(), at)
	}
}

// TestSameInstantCancelSibling: an event cancelling a later same-instant
// sibling suppresses it, and the cancelled handle goes inert
// immediately.
func TestSameInstantCancelSibling(t *testing.T) {
	e := NewEngine(1)
	var got []string
	var victim Event
	e.At(50, "killer", func() {
		got = append(got, "killer")
		if !victim.Pending() {
			t.Error("same-instant sibling not Pending before cancel")
		}
		e.Cancel(victim)
		if victim.Pending() {
			t.Error("cancelled sibling still Pending")
		}
	})
	victim = e.At(50, "victim", func() { got = append(got, "victim") })
	e.At(50, "after", func() { got = append(got, "after") })
	e.Run()
	if fmt.Sprint(got) != fmt.Sprint([]string{"killer", "after"}) {
		t.Errorf("fire order %v, want [killer after]", got)
	}
	if e.EventsFired() != 2 {
		t.Errorf("fired = %d, want 2", e.EventsFired())
	}
}

// TestSameInstantPendingCounts: Pending and NextEventTime stay correct
// while part of a same-instant run has fired.
func TestSameInstantPendingCounts(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 4; i++ {
		e.At(10, "tie", func() {})
	}
	e.At(20, "later", func() {})
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	e.Step() // fires the first of the run at 10
	if got := e.Pending(); got != 4 {
		t.Errorf("Pending mid-run = %d, want 4", got)
	}
	if got := e.NextEventTime(); got != 10 {
		t.Errorf("NextEventTime mid-run = %v, want 10", got)
	}
	e.Step()
	e.Step()
	e.Step()
	if got := e.NextEventTime(); got != 20 {
		t.Errorf("NextEventTime after run = %v, want 20", got)
	}
}

// TestSameInstantResetMidRun: Reset with a partially dispatched
// same-instant run (live and cancelled leftovers alike) recycles every
// node and leaves a clean engine — and the recycled nodes are reused,
// not leaked.
func TestSameInstantResetMidRun(t *testing.T) {
	e := NewEngine(1)
	var victim Event
	for i := 0; i < 6; i++ {
		h := e.At(10, "tie", func() {})
		if i == 3 {
			victim = h
		}
	}
	e.Step() // fire the first of the run
	e.Cancel(victim)
	e.Reset(2)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", got)
	}
	if e.Now() != 0 {
		t.Fatal("clock not rewound")
	}
	// The engine must be fully reusable: another same-instant storm
	// runs to completion.
	fired := 0
	for i := 0; i < 6; i++ {
		e.At(5, "tie", func() { fired++ })
	}
	e.Run()
	if fired != 6 {
		t.Errorf("fired %d/6 after Reset", fired)
	}
}

// TestZeroAllocSameInstantStorm extends the engine's zero-alloc gate to
// same-instant storms: scheduling and firing a run of ties allocates
// nothing once the pool is warm.
func TestZeroAllocSameInstantStorm(t *testing.T) {
	allocGateEngines(func(name string, e *Engine) {
		fn := func() {}
		zeroAllocs(t, "same-instant storm/"+name, func() {
			at := e.Now() + 5
			for i := 0; i < 16; i++ {
				e.At(at, "storm", fn)
			}
			e.RunUntil(at)
		})
	})
}

// TestDeferredTimerKeepsArmOrder: a timer deferred and committed later
// fires between its same-instant siblings exactly where an Arm at Defer
// time would have put it, and until the commit the queue holds nothing
// of it.
func TestDeferredTimerKeepsArmOrder(t *testing.T) {
	run := func(deferred bool) []string {
		e := NewEngine(1)
		var got []string
		tm := NewTimer(e, "timer", func() { got = append(got, "timer") })
		e.At(100, "before", func() { got = append(got, "before") })
		if deferred {
			tm.Defer(100)
		} else {
			tm.Arm(100)
		}
		e.At(100, "after", func() { got = append(got, "after") })
		if deferred {
			tm.Commit(99) // expires after until: stays deferred
			if e.Pending() != 2 || !tm.Pending() || tm.Deadline() != 100 {
				t.Fatalf("deferred: engine pending %d, timer pending %v deadline %v; want 2, true, 100",
					e.Pending(), tm.Pending(), tm.Deadline())
			}
			e.At(10, "commit", func() { tm.Commit(100) })
		}
		e.Run()
		return got
	}
	want := fmt.Sprint(run(false))
	if got := fmt.Sprint(run(true)); got != want || want != "[before timer after]" {
		t.Fatalf("deferred fire order %v, armed %v, want [before timer after]", got, want)
	}
}

// TestDeferredDisarmTouchesNoQueue: disarming a deferred timer changes
// nothing in the engine, and a later Commit of it is a no-op.
func TestDeferredDisarmTouchesNoQueue(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := NewTimer(e, "timer", func() { fired = true })
	e.At(50, "other", func() {})
	tm.Defer(5)
	before := e.Pending()
	tm.Disarm()
	if e.Pending() != before || tm.Pending() || tm.Deadline() != Forever {
		t.Fatalf("after Disarm: engine pending %d (was %d), timer pending %v", e.Pending(), before, tm.Pending())
	}
	tm.Commit(Forever)
	e.Run()
	if fired || e.EventsFired() != 1 {
		t.Fatalf("disarmed deferred timer fired (%v), events fired %d", fired, e.EventsFired())
	}
}
