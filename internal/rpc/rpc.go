// Package rpc models the shared-memory cross-core RPC transport that
// replaces same-core CPU mode switches under core gapping (§4.3).
//
// The transport is a set of mailboxes in non-confidential shared memory.
// A mailbox carries one outstanding call: the client posts a request,
// which becomes visible to the other core after a cache-coherence
// propagation delay; the server takes it, services it, and completes it
// with a response that propagates back the same way. Two usage patterns
// are built on this single primitive:
//
//   - synchronous calls: the client busy-waits for the response (short
//     RMM calls such as page-table updates — 257.7 ns round trip);
//   - asynchronous calls: the client blocks and is woken through an IPI
//     plus a wake-up thread (vCPU run calls — 2757.6 ns round trip).
//
// The mailbox enforces its state machine strictly; protocol violations
// panic, because they always indicate an orchestration bug in host or
// monitor code, exactly the class of bug the real prototype had to debug.
package rpc

import (
	"fmt"

	"coregap/internal/sim"
)

// Proxy-call counters: one post and one complete per proxied call, so
// (posts == completes) at quiescence is a cheap protocol sanity check.
var (
	cPosts     = sim.DefineCounter("rpc.posts")
	cCompletes = sim.DefineCounter("rpc.completes")
)

// State is the mailbox protocol state.
type State int

// Mailbox states.
const (
	// Idle: no outstanding call.
	Idle State = iota
	// Requested: client posted a request (possibly not yet visible).
	Requested
	// Serving: server took the request and is working on it.
	Serving
	// Done: server posted a response (possibly not yet visible).
	Done
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Requested:
		return "requested"
	case Serving:
		return "serving"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Mailbox is one cache-line-grained call slot in shared memory.
type Mailbox struct {
	eng  *sim.Engine
	name string

	state State
	req   any
	resp  any

	reqVisibleAt  sim.Time
	respVisibleAt sim.Time

	// stats
	calls uint64
}

// NewMailbox returns an idle mailbox.
func NewMailbox(eng *sim.Engine, name string) *Mailbox {
	return &Mailbox{eng: eng, name: name}
}

// Name reports the mailbox label.
func (m *Mailbox) Name() string { return m.name }

// State reports the protocol state.
func (m *Mailbox) State() State { return m.state }

// Calls reports how many calls have completed through this mailbox.
func (m *Mailbox) Calls() uint64 { return m.calls }

// Post places a request; it becomes visible to pollers after propDelay
// (the cache-line transfer between cores).
func (m *Mailbox) Post(req any, propDelay sim.Duration) {
	if m.state != Idle {
		panic(fmt.Sprintf("rpc: post on %v mailbox %s", m.state, m.name))
	}
	m.state = Requested
	m.req = req
	m.reqVisibleAt = m.eng.Now().Add(propDelay)
	m.eng.Count(cPosts)
	m.eng.Trace().SpanDetail(sim.TCProxy, "rpc.post", m.name, sim.LaneGlobal, propDelay, 0)
}

// TryTake is the server-side poll: it claims the request if one is
// visible, transitioning to Serving.
func (m *Mailbox) TryTake() (req any, ok bool) {
	if m.state != Requested || m.eng.Now() < m.reqVisibleAt {
		return nil, false
	}
	m.state = Serving
	req = m.req
	m.req = nil
	return req, true
}

// RequestVisibleAt reports when a posted request becomes pollable
// (Forever when none is outstanding). Servers use this to schedule their
// pickup without simulating every poll iteration.
func (m *Mailbox) RequestVisibleAt() sim.Time {
	if m.state != Requested {
		return sim.Forever
	}
	return m.reqVisibleAt
}

// Complete posts the response; it becomes visible to the client after
// propDelay.
func (m *Mailbox) Complete(resp any, propDelay sim.Duration) {
	if m.state != Serving {
		panic(fmt.Sprintf("rpc: complete on %v mailbox %s", m.state, m.name))
	}
	m.state = Done
	m.resp = resp
	m.respVisibleAt = m.eng.Now().Add(propDelay)
	m.eng.Count(cCompletes)
	m.eng.Trace().SpanDetail(sim.TCProxy, "rpc.complete", m.name, sim.LaneGlobal, propDelay, 0)
}

// TryResponse is the client-side poll: it consumes the response if
// visible, returning the mailbox to Idle.
func (m *Mailbox) TryResponse() (resp any, ok bool) {
	if m.state != Done || m.eng.Now() < m.respVisibleAt {
		return nil, false
	}
	m.state = Idle
	resp = m.resp
	m.resp = nil
	m.calls++
	return resp, true
}

// ResponseVisibleAt reports when the posted response becomes pollable
// (Forever when none).
func (m *Mailbox) ResponseVisibleAt() sim.Time {
	if m.state != Done {
		return sim.Forever
	}
	return m.respVisibleAt
}

// Abort drops an outstanding call (e.g. the vCPU was destroyed while a
// run call was in flight). Any state is accepted; the mailbox idles.
func (m *Mailbox) Abort() {
	m.state = Idle
	m.req = nil
	m.resp = nil
}

// Transport bundles the latency parameters of the shared-memory path.
type Transport struct {
	// Prop is the one-way cache-coherence propagation delay for a
	// mailbox line between two cores.
	Prop sim.Duration
	// PollOverhead is the mean extra delay before a busy-polling peer
	// notices a visible line (half a poll-loop iteration).
	PollOverhead sim.Duration
}

// DefaultTransport is calibrated so that a null synchronous call
// (post → server poll pickup → complete → client poll pickup) costs the
// paper's measured 257.7 ns round trip on an idle server (Table 2).
func DefaultTransport() Transport {
	return Transport{
		Prop:         110 * sim.Nanosecond,
		PollOverhead: 19 * sim.Nanosecond,
	}
}

// SyncRoundTrip reports the modelled null-call round-trip latency of a
// synchronous busy-wait call against an idle polling server.
func (t Transport) SyncRoundTrip() sim.Duration {
	return 2*t.Prop + 2*t.PollOverhead
}

// PickupLatency reports the delay from Post to the server's TryTake
// succeeding, for an idle busy-polling server.
func (t Transport) PickupLatency() sim.Duration { return t.Prop + t.PollOverhead }
