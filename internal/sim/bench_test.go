package sim

import "testing"

// Microbenchmarks for the engine hot path, for ns/op and allocs/op
// comparisons while working on it (`go test -bench . ./internal/sim`);
// `make check` runs each once so they keep compiling and running. The
// host-time record is bench/run.sh's `sim.after_step_ns`. The companion
// TestZeroAlloc* gates turn the free-list contract — no allocation on
// the schedule/fire path once the pool is warm — into a failing test
// rather than a benchmark footnote.

// BenchmarkSchedule measures the steady-state schedule→fire round trip:
// one After plus one Step, recycling a single pool node.
func BenchmarkSchedule(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	e.After(1, "warm", fn)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, "bench", fn)
		e.Step()
	}
}

// BenchmarkCancel measures schedule→cancel, the re-arm pattern of every
// timer in the models.
func BenchmarkCancel(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(e.After(1, "bench", fn))
	}
}

// BenchmarkChurn measures a deep-queue mix: 256 resident events, each
// iteration fires the earliest and schedules a replacement at a
// deterministic pseudo-random offset, exercising full-depth sifts.
func BenchmarkChurn(b *testing.B) {
	e := NewEngine(1)
	src := e.Source("churn")
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(Duration(src.Intn(1000)+1), "resident", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.After(Duration(src.Intn(1000)+1), "resident", fn)
	}
}

// empiricalDelta samples the schedule-delta distribution observed on
// the real suite (sched->fire pairs from the engine flight recorder
// over table3/fig6/fig8 trials): 51% is the 5us scheduler tick, a
// third is sub-microsecond IPI/world-switch traffic (129ns-1.6us), and
// the tail has spikes at 500us (netpipe round), 4ms (redis think time)
// and beyond.
var empiricalDeltas = func() (table []Duration) {
	dist := []struct {
		d Duration
		w int
	}{
		{5000, 507}, {500000, 92}, {450, 80}, {500, 58}, {129, 35},
		{300, 32}, {600, 24}, {969, 24}, {23559, 20}, {800, 17},
		{4000000, 14}, {2000, 13}, {4059, 12}, {1350, 11}, {1250, 11},
		{9900, 11}, {1600, 7}, {6400, 3}, {2500, 2}, {200, 2},
		{262144, 1}, {210890875, 1},
	}
	for _, e := range dist {
		for i := 0; i < e.w; i++ {
			table = append(table, e.d)
		}
	}
	return table
}()

// BenchmarkScheduleShortDelta replays the empirical delta mix through a
// 256-deep resident queue: each iteration fires the earliest event and
// schedules a replacement at an empirically drawn offset.
func BenchmarkScheduleShortDelta(b *testing.B) {
	e := NewEngine(1)
	src := e.Source("bench")
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(empiricalDeltas[src.Intn(len(empiricalDeltas))], "resident", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.After(empiricalDeltas[src.Intn(len(empiricalDeltas))], "resident", fn)
	}
}

// BenchmarkTimerChurn replays the re-arm pattern of the models' timers
// against the empirical delta mix: 64 resident timers; each iteration
// cancels one, re-arms it at a fresh empirical offset, and steps the
// engine once — the cancel-heavy shape world-switch deadline timers
// produce.
func BenchmarkTimerChurn(b *testing.B) {
	e := NewEngine(1)
	src := e.Source("bench")
	fn := func() {}
	var timers [64]Event
	for i := range timers {
		timers[i] = e.After(empiricalDeltas[src.Intn(len(empiricalDeltas))], "timer", fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 63
		e.Cancel(timers[j])
		timers[j] = e.After(empiricalDeltas[src.Intn(len(empiricalDeltas))], "timer", fn)
		e.Step()
	}
}

// zeroAllocs asserts a hot-path operation allocates nothing per run
// once the engine pool is warm.
func zeroAllocs(t *testing.T, name string, op func()) {
	t.Helper()
	op() // warm the pool and the heap backing array
	if avg := testing.AllocsPerRun(1000, op); avg != 0 {
		t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, avg)
	}
}

// allocGateEngines yields one engine per tracing corner: the engine
// must hold the zero-allocation invariant with the flight recorder off
// and on (ring emits are value writes).
func allocGateEngines(f func(name string, e *Engine)) {
	for _, traced := range []bool{false, true} {
		e := NewEngine(1)
		name := "untraced"
		if traced {
			e.EnableTracing(1 << 12)
			name = "traced"
		}
		f(name, e)
	}
}

// TestZeroAllocScheduleFire is the allocation-regression gate for the
// BenchmarkSchedule path.
func TestZeroAllocScheduleFire(t *testing.T) {
	allocGateEngines(func(name string, e *Engine) {
		fn := func() {}
		zeroAllocs(t, "schedule+fire/"+name, func() {
			e.After(1, "gate", fn)
			e.Step()
		})
	})
}

// TestZeroAllocCancel gates the schedule→cancel path.
func TestZeroAllocCancel(t *testing.T) {
	allocGateEngines(func(name string, e *Engine) {
		fn := func() {}
		zeroAllocs(t, "schedule+cancel/"+name, func() {
			e.Cancel(e.After(1, "gate", fn))
		})
	})
}

// TestZeroAllocDeepQueue gates the full-depth restructuring path: the
// queue stays 256 deep while events churn through it (heap sifts).
func TestZeroAllocDeepQueue(t *testing.T) {
	allocGateEngines(func(name string, e *Engine) {
		src := e.Source("gate")
		fn := func() {}
		for i := 0; i < 256; i++ {
			e.After(Duration(src.Intn(1000)+1), "resident", fn)
		}
		zeroAllocs(t, "deep-queue churn/"+name, func() {
			e.Step()
			e.After(Duration(src.Intn(1000)+1), "resident", fn)
		})
	})
}

// TestZeroAllocTimer gates the timer and ticker paths every periodic
// model uses: Arm/Disarm re-bind nothing, and an expiry or a tick
// fires the callback bound at construction.
func TestZeroAllocTimer(t *testing.T) {
	allocGateEngines(func(name string, e *Engine) {
		fn := func() {}
		tm := NewTimer(e, "gate", fn)
		zeroAllocs(t, "timer arm+fire/"+name, func() {
			tm.Arm(1)
			e.Step()
		})
		zeroAllocs(t, "timer arm+rearm+disarm/"+name, func() {
			tm.Arm(5)
			tm.Arm(3)
			tm.Disarm()
		})
		zeroAllocs(t, "timer defer+commit+fire/"+name, func() {
			tm.Defer(2)
			tm.Commit(Forever)
			e.Step()
		})
		tk := NewTicker(e, "gate-tick", 7, fn)
		tk.Start()
		zeroAllocs(t, "ticker tick/"+name, func() { e.Step() })
		tk.Stop()
	})
}

// TestThunksRecycle: a bound callback runs its function once with the
// payload it was bound with, and its node is reused by the next Bind.
func TestThunksRecycle(t *testing.T) {
	var l Thunks[int]
	var got []int
	record := func(v int) { got = append(got, v) }
	a, b := l.Bind(record, 1), l.Bind(record, 2)
	b()
	a()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("thunks ran %v, want [2 1]", got)
	}
	got = got[:0]
	zeroAllocs(t, "thunk bind+run", func() { l.Bind(record, 3)() })
}
