package rpc

import (
	"testing"

	"coregap/internal/sim"
)

func TestMailboxHappyPath(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMailbox(eng, "vcpu0")
	tr := DefaultTransport()

	m.Post("run", tr.Prop)
	if m.State() != Requested {
		t.Fatalf("state = %v", m.State())
	}
	// Not yet visible.
	if _, ok := m.TryTake(); ok {
		t.Fatal("request visible before propagation")
	}
	eng.RunUntil(sim.Time(tr.Prop))
	req, ok := m.TryTake()
	if !ok || req != "run" {
		t.Fatalf("take = %v,%v", req, ok)
	}
	if m.State() != Serving {
		t.Fatalf("state = %v", m.State())
	}

	m.Complete("exit", tr.Prop)
	if _, ok := m.TryResponse(); ok {
		t.Fatal("response visible before propagation")
	}
	eng.RunUntil(sim.Time(2 * tr.Prop))
	resp, ok := m.TryResponse()
	if !ok || resp != "exit" {
		t.Fatalf("resp = %v,%v", resp, ok)
	}
	if m.State() != Idle || m.Calls() != 1 {
		t.Fatalf("state=%v calls=%d", m.State(), m.Calls())
	}
}

func TestMailboxVisibility(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMailbox(eng, "x")
	if m.RequestVisibleAt() != sim.Forever || m.ResponseVisibleAt() != sim.Forever {
		t.Fatal("idle visibility not Forever")
	}
	m.Post(1, 100)
	if m.RequestVisibleAt() != 100 {
		t.Fatalf("req visible at %v", m.RequestVisibleAt())
	}
	eng.RunUntil(100)
	m.TryTake()
	m.Complete(2, 50)
	if m.ResponseVisibleAt() != 150 {
		t.Fatalf("resp visible at %v", m.ResponseVisibleAt())
	}
}

func TestMailboxProtocolViolations(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMailbox(eng, "x")
	mustPanic(t, "complete while idle", func() { m.Complete(nil, 0) })
	m.Post(1, 0)
	mustPanic(t, "double post", func() { m.Post(2, 0) })
	m.TryTake()
	mustPanic(t, "post while serving", func() { m.Post(3, 0) })
}

func TestMailboxAbort(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMailbox(eng, "x")
	m.Post(1, 0)
	m.Abort()
	if m.State() != Idle {
		t.Fatal("abort did not idle mailbox")
	}
	// A fresh call works after abort.
	m.Post(2, 0)
	if req, ok := m.TryTake(); !ok || req != 2 {
		t.Fatal("post after abort broken")
	}
}

func TestDefaultTransportCalibration(t *testing.T) {
	tr := DefaultTransport()
	// Table 2: core-gapped synchronous null call = 257.7 ns. Our model
	// must land within 1 ns of the paper's measurement.
	got := tr.SyncRoundTrip()
	if got < 257*sim.Nanosecond || got > 259*sim.Nanosecond {
		t.Fatalf("sync round trip = %v, want ~258ns", got)
	}
	if tr.PickupLatency() != tr.Prop+tr.PollOverhead {
		t.Fatal("pickup latency inconsistent")
	}
}

func TestMailboxManyCalls(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMailbox(eng, "x")
	tr := DefaultTransport()
	for i := 0; i < 100; i++ {
		m.Post(i, tr.Prop)
		eng.RunFor(tr.PickupLatency())
		req, ok := m.TryTake()
		if !ok || req != i {
			t.Fatalf("call %d: take = %v,%v", i, req, ok)
		}
		m.Complete(i*2, tr.Prop)
		eng.RunFor(tr.PickupLatency())
		resp, ok := m.TryResponse()
		if !ok || resp != i*2 {
			t.Fatalf("call %d: resp = %v,%v", i, resp, ok)
		}
	}
	if m.Calls() != 100 {
		t.Fatalf("calls = %d", m.Calls())
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{Idle: "idle", Requested: "requested", Serving: "serving", Done: "done"} {
		if s.String() != want {
			t.Errorf("%v = %q", s, s.String())
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}
