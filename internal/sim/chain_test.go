package sim

import (
	"fmt"
	"testing"
)

// chainHarness runs one schedule two ways: a periodic tick whose next
// event is queued by each tick (the reference), or kept out of the
// queue as the engine's chain under the sequence number the queued tick
// would have taken. Other events, some on tick instants, schedule
// follow-ups on tick instants too. The fire orders must agree.
func chainHarness(chained bool) (order []string, fired uint64, now Time) {
	e := NewEngine(1)
	const period, ticks = 10, 50
	var n int
	var at Time
	var seq uint64
	var tick func()
	// chainTick fires the chain's ticks that come before the bound,
	// first the one due.
	chainTick := func(until Time, untilSeq uint64) Time {
		last := e.Now()
		for {
			last = at
			tick()
			if at == Forever || at > until || (at == until && seq > untilSeq) {
				return last
			}
		}
	}
	tick = func() {
		order = append(order, fmt.Sprintf("tick%d@%v", n, at))
		if n++; n == ticks {
			if chained {
				at = Forever
				e.SetChain(Forever, 0, nil)
			}
			return
		}
		if chained {
			at, seq = at.Add(period), e.Reserve()
			e.SetChain(at, seq, chainTick)
		} else {
			at = e.Now().Add(period)
			e.After(period, "tick", tick)
		}
	}
	// The first tick is queued either way; it starts the chain.
	e.At(0, "tick", tick)
	for i := 0; i < 40; i++ {
		i := i
		t := Time(i*37%500) - Time(i*37%500)%period*Time(i%2) // half on tick instants
		e.At(t, "ev", func() {
			order = append(order, fmt.Sprintf("ev%d@%v", i, e.Now()))
			if i%3 == 0 {
				e.After(period*Duration(i%4), "late", func() {
					order = append(order, fmt.Sprintf("late%d@%v", i, e.Now()))
				})
			}
		})
	}
	e.RunUntil(300)
	for e.Step() {
	}
	return order, e.EventsFired(), e.Now()
}

func TestChainFiresAtQueuedPlace(t *testing.T) {
	want, queued, wantNow := chainHarness(false)
	got, chainedFired, gotNow := chainHarness(true)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("chained order differs\n got %v\nwant %v", got, want)
	}
	if gotNow != wantNow {
		t.Fatalf("now = %v, want %v", gotNow, wantNow)
	}
	// Every tick but the first (queued) fired off the queue.
	if queued-chainedFired != 49 {
		t.Fatalf("events fired: %d queued, %d chained; want 49 fewer", queued, chainedFired)
	}
}

// TestAtReservedKeepsReservedPlace: an event queued under a number
// reserved earlier fires before same-instant events scheduled after the
// reservation, and a timer deferred under one fires where Defer would
// have put it.
func TestAtReservedKeepsReservedPlace(t *testing.T) {
	e := NewEngine(1)
	var got []string
	rec := func(s string) func() { return func() { got = append(got, s) } }
	e.At(100, "before", rec("before"))
	seq := e.Reserve()
	tseq := e.Reserve()
	e.At(100, "after", rec("after"))
	tm := NewTimer(e, "timer", rec("timer"))
	tm.DeferReserved(100, tseq)
	e.AtReserved(100, seq, "reserved", rec("reserved"))
	tm.Commit(100)
	if !tm.Pending() || tm.Deadline() != 100 {
		t.Fatalf("deferred timer pending=%v deadline=%v", tm.Pending(), tm.Deadline())
	}
	e.Run()
	if want := "[before reserved timer after]"; fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestStepUntilChain: StepUntil fires the chain events ahead of the next
// queued event, stops once a chain event reaches its limit, and
// NextEventTime sees the chain.
func TestStepUntilChain(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	var tick func(Time, uint64) Time
	tick = func(Time, uint64) Time {
		now := e.Now()
		got = append(got, now)
		e.SetChain(now.Add(10), e.Reserve(), tick)
		return now
	}
	e.SetChain(10, e.Reserve(), tick)
	e.At(25, "q", func() { got = append(got, -e.Now()) })
	if e.NextEventTime() != 10 {
		t.Fatalf("NextEventTime = %v, want the chain's 10", e.NextEventTime())
	}
	if !e.StepUntil(100) || fmt.Sprint(got) != "[10ns 20ns -25ns]" {
		t.Fatalf("first StepUntil fired %v", got)
	}
	if e.StepUntil(40) || e.Now() != 40 || fmt.Sprint(got) != "[10ns 20ns -25ns 30ns 40ns]" {
		t.Fatalf("StepUntil(40) fired %v, now %v; want to stop at the chain event at 40", got, e.Now())
	}
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want the one queued event", e.EventsFired())
	}
	e.Reset(2)
	if e.NextEventTime() != Forever || e.Step() {
		t.Fatal("Reset left the chain set")
	}
}
