package sim

import (
	"testing"
)

// driveEngine runs a deterministic little workload — chained events,
// cancellations, two named sources — and returns a trace of everything
// observable: fire order, times, and drawn random values.
func driveEngine(e *Engine) []uint64 {
	var out []uint64
	a, b := e.Source("alpha"), e.Source("beta")
	for i := 0; i < 8; i++ {
		i := i
		e.After(Duration(1+i*3), "ev", func() {
			out = append(out, uint64(e.Now()), a.Uint64())
			if i%2 == 0 {
				e.After(2, "chained", func() { out = append(out, b.Uint64()) })
			}
		})
	}
	doomed := e.After(100, "doomed", func() { out = append(out, 0xdead) })
	e.Cancel(doomed)
	e.Run()
	out = append(out, e.EventsFired(), uint64(e.Now()))
	return out
}

// TestEngineResetMatchesFresh: after any amount of prior use, Reset(seed)
// must leave the engine observationally identical to NewEngine(seed) —
// same event order, same clock, same source streams.
func TestEngineResetMatchesFresh(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xfeedface} {
		want := driveEngine(NewEngine(seed))
		reused := NewEngine(99)
		driveEngine(reused) // dirty it with a different seed
		reused.Reset(seed)
		if got := driveEngine(reused); !equalU64(got, want) {
			t.Errorf("seed %d: reset engine diverges from fresh\nfresh: %v\nreset: %v", seed, want, got)
		}
	}
}

// TestEngineResetDiscardsPending: events still queued at Reset never
// fire, and their handles become inert exactly like cancelled ones.
func TestEngineResetDiscardsPending(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.After(10, "pending", func() { fired = true })
	if !h.Pending() {
		t.Fatal("event should be pending before reset")
	}
	e.Reset(2)
	if h.Pending() {
		t.Error("handle still pending after reset")
	}
	e.Cancel(h) // must be a no-op, not a heap corruption
	e.Run()
	if fired {
		t.Error("event scheduled before reset fired after it")
	}
	if e.Now() != 0 || e.EventsFired() != 0 {
		t.Errorf("reset engine not rewound: now=%v fired=%d", e.Now(), e.EventsFired())
	}
}

// TestEngineResetSourcePointersSurvive: a *Source obtained before Reset
// keeps working afterwards and carries the new seed's stream — holders
// across a pooled trial boundary see exactly what a fresh lookup would.
func TestEngineResetSourcePointersSurvive(t *testing.T) {
	e := NewEngine(7)
	held := e.Source("held")
	held.Uint64() // advance the old stream
	e.Reset(11)
	fresh := NewEngine(11)
	for i := 0; i < 16; i++ {
		if got, want := held.Uint64(), fresh.Source("held").Uint64(); got != want {
			t.Fatalf("draw %d: held source = %d, fresh = %d", i, got, want)
		}
	}
	if e.Source("held") != held {
		t.Error("Source lookup after reset returned a different pointer")
	}
}

// TestEngineResetZeroAllocSteadyState: once warmed, Reset plus a full
// reuse cycle allocates nothing — the heap array, free list and sources
// all survive.
func TestEngineResetZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(3)
	driveEngine(e)
	e.Reset(3)
	var sink []uint64
	// One shared callback: per-iteration closures would charge the test
	// itself with an allocation per event.
	draw := func() { sink = append(sink, e.Source("alpha").Uint64()) }
	run := func() {
		e.Reset(3)
		for i := 0; i < 8; i++ {
			e.After(Duration(1+i), "ev", draw)
		}
		e.Run()
	}
	run() // warm sink capacity
	sink = sink[:0]
	allocs := testing.AllocsPerRun(20, func() {
		sink = sink[:0]
		run()
	})
	if allocs > 0 {
		t.Errorf("warmed Reset+run cycle allocates %.1f times, want 0", allocs)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
