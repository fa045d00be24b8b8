package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(30, "c", func() { got = append(got, 3) })
	e.After(10, "a", func() { got = append(got, 1) })
	e.After(20, "b", func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, "same", func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.After(10, "x", func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev)      // double-cancel is a no-op
	e.Cancel(Event{}) // zero handle is a no-op
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Pending() {
		t.Fatal("cancelled event still pending")
	}
}

// TestStaleHandleAfterRecycle is the event-pool hazard regression test:
// once an event has been cancelled (or fired) its node goes back to the
// engine's free list and may be reused for an unrelated event. A handle
// held from before the recycle must read as not pending, must not
// cancel the node's new occupant, and must never fire the old callback.
func TestStaleHandleAfterRecycle(t *testing.T) {
	e := NewEngine(1)
	oldFired, newFired := 0, 0
	ev1 := e.After(10, "old", func() { oldFired++ })
	e.Cancel(ev1)
	// The free list is LIFO, so this reuses ev1's node.
	ev2 := e.After(20, "new", func() { newFired++ })
	if ev2.n != ev1.n {
		t.Fatalf("free list did not recycle the cancelled node")
	}
	if ev1.Pending() {
		t.Fatal("stale handle reports pending after its node was recycled")
	}
	if ev1.Time() != 0 || ev1.Label() != "" {
		t.Fatalf("stale handle leaks recycled node state: at=%v label=%q", ev1.Time(), ev1.Label())
	}
	e.Cancel(ev1) // must not cancel ev2, which now owns the node
	if !ev2.Pending() {
		t.Fatal("stale Cancel killed the node's new occupant")
	}
	e.Run()
	if oldFired != 0 || newFired != 1 {
		t.Fatalf("fired old=%d new=%d, want 0/1", oldFired, newFired)
	}
	if ev2.Pending() {
		t.Fatal("fired event still pending")
	}
}

// TestEventPoolReuse: steady-state schedule/fire churn stays within the
// pool — the free list returns to its high-water mark after every fire,
// and the heap never regrows.
func TestEventPoolReuse(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var rec func()
	rec = func() {
		n++
		if n < 1000 {
			e.After(1, "rec", rec)
		}
	}
	e.After(1, "rec", rec)
	e.Run()
	if got := len(e.free); got != 1 {
		t.Fatalf("free list has %d nodes after single-chain churn, want 1", got)
	}
	if e.fired != 1000 {
		t.Fatalf("fired = %d, want 1000", e.fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		d := d
		e.After(d, "t", func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by t=12, want 2", len(fired))
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
}

func TestEngineSchedulingInsideEvents(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 100 {
			e.After(1, "rec", rec)
		}
	}
	e.After(1, "rec", rec)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

// TestHeapStressRandom exercises the 4-ary heap with a random mix of
// schedules and cancellations and asserts the fundamental invariant:
// events fire in non-decreasing time order, FIFO within one instant,
// and cancelled events never fire.
func TestHeapStressRandom(t *testing.T) {
	e := NewEngine(123)
	src := e.Source("stress")
	type rec struct {
		at        Time
		seq       int
		cancelled bool
	}
	var fired []rec
	var handles []Event
	var meta []*rec
	for i := 0; i < 5000; i++ {
		at := Time(src.Intn(1000))
		r := &rec{at: at, seq: i}
		meta = append(meta, r)
		handles = append(handles, e.At(at, "s", func() { fired = append(fired, *r) }))
	}
	cancelled := 0
	for i := range handles {
		if src.Intn(3) == 0 {
			meta[i].cancelled = true
			e.Cancel(handles[i])
			cancelled++
		}
	}
	e.Run()
	if len(fired) != 5000-cancelled {
		t.Fatalf("fired %d events, want %d", len(fired), 5000-cancelled)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
			t.Fatalf("order violated at %d: (%v,%d) before (%v,%d)", i, a.at, a.seq, b.at, b.seq)
		}
	}
	for _, f := range fired {
		if f.cancelled {
			t.Fatalf("cancelled event (%v,%d) fired", f.at, f.seq)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(10, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, "past", func() {})
	})
	e.Run()
}

func TestSourceDeterminism(t *testing.T) {
	a := NewEngine(42).Source("lat")
	b := NewEngine(42).Source("lat")
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverge at %d: %d != %d", i, x, y)
		}
	}
}

func TestSourceIndependence(t *testing.T) {
	e := NewEngine(42)
	a, b := e.Source("a"), e.Source("b")
	if a == b {
		t.Fatal("distinct names share a source")
	}
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for distinct names look identical (%d collisions)", same)
	}
	if e.Source("a") != a {
		t.Fatal("Source not memoized")
	}
}

func TestSourceUniformityProperties(t *testing.T) {
	s := NewSource(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if v := s.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestSourceDurationBounds(t *testing.T) {
	s := NewSource(9)
	f := func(a, b int32) bool {
		lo, hi := Duration(a), Duration(b)
		if hi < lo {
			lo, hi = hi, lo
		}
		d := s.Duration(lo, hi)
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpMean(t *testing.T) {
	s := NewSource(13)
	var sum Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += s.Exp(1000)
	}
	mean := float64(sum) / n
	if mean < 900 || mean > 1100 {
		t.Fatalf("Exp mean = %.1f, want ~1000", mean)
	}
}

func TestTimerRearmAndDisarm(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, "t", func() { fired++ })
	tm.Arm(10)
	tm.Arm(20) // re-arm cancels the first expiry
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("fired at %v, want 20", e.Now())
	}
	tm.Arm(5)
	tm.Disarm()
	e.Run()
	if fired != 1 {
		t.Fatal("disarmed timer fired")
	}
}

func TestTimerDeadline(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, "t", func() {})
	if tm.Pending() {
		t.Fatal("new timer pending")
	}
	if tm.Deadline() != Forever {
		t.Fatal("unarmed deadline not Forever")
	}
	tm.Arm(77)
	if !tm.Pending() || tm.Deadline() != 77 {
		t.Fatalf("deadline = %v, want 77", tm.Deadline())
	}
}

func TestTickerNoDrift(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, "tick", 7, func() { ticks = append(ticks, e.Now()) })
	tk.Start()
	e.RunUntil(70)
	tk.Stop()
	e.Run()
	if len(ticks) != 10 {
		t.Fatalf("got %d ticks, want 10", len(ticks))
	}
	for i, at := range ticks {
		if want := Time(7 * (i + 1)); at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopRestart(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, "tick", 10, func() { n++ })
	tk.Start()
	e.RunUntil(25)
	tk.Stop()
	if tk.Running() {
		t.Fatal("stopped ticker running")
	}
	e.RunUntil(100)
	if n != 2 {
		t.Fatalf("ticks after stop: n = %d, want 2", n)
	}
	tk.Start()
	e.RunUntil(120)
	if n != 4 {
		t.Fatalf("restart failed: n = %d, want 4", n)
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{-500, "-500ns"},
		{25 * Microsecond, "25.00us"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.00s"},
		{30 * Second, "30.00s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tm Time = 100
	if tm.Add(50) != 150 {
		t.Fatal("Add")
	}
	if Time(150).Sub(tm) != 50 {
		t.Fatal("Sub")
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine(1)
	if e.NextEventTime() != Forever {
		t.Fatal("empty queue should report Forever")
	}
	e.After(42, "x", func() {})
	if e.NextEventTime() != 42 {
		t.Fatalf("NextEventTime = %v, want 42", e.NextEventTime())
	}
}

func TestEngineFullDeterminism(t *testing.T) {
	run := func() (Time, uint64) {
		e := NewEngine(99)
		src := e.Source("w")
		var last Time
		var rec func()
		n := 0
		rec = func() {
			last = e.Now()
			n++
			if n < 500 {
				e.After(src.Duration(1, 100), "r", rec)
			}
		}
		e.After(1, "r", rec)
		e.Run()
		return last, e.EventsFired()
	}
	t1, n1 := run()
	t2, n2 := run()
	if t1 != t2 || n1 != n2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, n1, t2, n2)
	}
}
