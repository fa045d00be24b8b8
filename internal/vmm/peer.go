package vmm

import (
	"coregap/internal/sim"
	"coregap/internal/trace"
)

// Peer models the external client machine ("another equivalent but
// unmodified system", §5.3): it originates load, receives the guest's
// transmissions after wire latency, and measures client-observed latency.
//
// Peer is deliberately outside the simulated host: its own CPU time is
// free, exactly like a dedicated load-generator machine.
type Peer struct {
	eng *sim.Engine
	met *trace.Set

	// sendToGuest delivers peer→guest data (device RX path).
	sendToGuest func(vcpu, bytes, tag int)
	wire        sim.Duration
	wireNsPerB  float64
	// sends recycles the payloads of messages on the wire.
	sends sim.Thunks[peerMsg]
}

// peerMsg is a peer→guest message on the wire.
type peerMsg struct {
	p                *Peer
	vcpu, bytes, tag int
}

func peerArrived(m peerMsg) {
	if m.p.sendToGuest != nil {
		m.p.sendToGuest(m.vcpu, m.bytes, m.tag)
	}
}

// NewPeer builds a peer with the same wire characteristics as the device
// model.
func NewPeer(eng *sim.Engine, costs Costs, met *trace.Set) *Peer {
	return &Peer{eng: eng, met: met, wire: costs.WireLatency, wireNsPerB: costs.WireNsPerByte}
}

// Connect wires the peer's transmit path to a device's DeliverToGuest.
func (p *Peer) Connect(rx func(vcpu, bytes, tag int)) { p.sendToGuest = rx }

// wireDelay is the peer→guest wire time for a message of the given size.
func (p *Peer) wireDelay(bytes int) sim.Duration {
	return p.wire + sim.Duration(p.wireNsPerB*float64(bytes))
}

// Send transmits bytes to the guest vCPU after wire latency.
func (p *Peer) Send(vcpu, bytes, tag int) {
	d := p.wireDelay(bytes)
	p.eng.After(d, "peer-wire", p.sends.Bind(peerArrived, peerMsg{p, vcpu, bytes, tag}))
}

// PingPong runs a NetPIPE-style closed loop: send a message, wait for the
// echo, record the round-trip, repeat. onDone fires after rounds echoes.
type PingPong struct {
	peer   *Peer
	bytes  int
	rounds int
	done   int
	sentAt sim.Time
	metric string
	onDone func()
}

// NewPingPong builds the closed-loop client; RTTs are recorded at
// completion time into the peer's metric set under metric (whole-run
// histogram plus, when the set has a window width, the windowed metric).
func NewPingPong(peer *Peer, bytes, rounds int, metric string, onDone func()) *PingPong {
	return &PingPong{peer: peer, bytes: bytes, rounds: rounds, metric: metric, onDone: onDone}
}

// Start fires the first message.
func (pp *PingPong) Start() {
	pp.sentAt = pp.peer.eng.Now()
	pp.peer.Send(0, pp.bytes, 0)
}

// OnEcho is called (via the peer connection) when the guest's reply
// arrives back at the client.
func (pp *PingPong) OnEcho(bytes, tag int) {
	now := pp.peer.eng.Now()
	pp.peer.met.Lat(pp.metric, now, now.Sub(pp.sentAt))
	pp.done++
	if pp.done >= pp.rounds {
		if pp.onDone != nil {
			pp.onDone()
		}
		return
	}
	pp.Start()
}

// Done reports completed rounds.
func (pp *PingPong) Done() int { return pp.done }

// LoadGen is the redis-benchmark client pool (Table 5): n closed-loop
// clients, each sending its next request immediately after receiving the
// previous response.
type LoadGen struct {
	peer     *Peer
	clients  int
	reqBytes int
	mkTag    func(client int) int

	sentAt  []sim.Time
	metric  string
	served  uint64
	stopped bool
}

// NewLoadGen builds the client pool. mkTag produces the request tag for a
// client (encoding the operation); latencies are recorded at completion
// time into the peer's metric set under metric.
func NewLoadGen(peer *Peer, clients, reqBytes int, mkTag func(int) int, metric string) *LoadGen {
	return &LoadGen{
		peer:     peer,
		clients:  clients,
		reqBytes: reqBytes,
		mkTag:    mkTag,
		sentAt:   make([]sim.Time, clients),
		metric:   metric,
	}
}

// Start launches all clients against guest vCPU 0.
func (lg *LoadGen) Start() {
	for c := 0; c < lg.clients; c++ {
		lg.send(c)
	}
}

func (lg *LoadGen) send(client int) {
	lg.sentAt[client] = lg.peer.eng.Now()
	lg.peer.Send(0, lg.reqBytes, lg.mkTag(client))
}

// OnResponse is called when the guest's reply for a client arrives.
func (lg *LoadGen) OnResponse(bytes, tag int) {
	client := tag & 0xffffff
	if client >= lg.clients {
		return
	}
	now := lg.peer.eng.Now()
	lg.peer.met.Lat(lg.metric, now, now.Sub(lg.sentAt[client]))
	lg.served++
	if !lg.stopped {
		lg.send(client)
	}
}

// Stop ends the closed loop (outstanding requests drain naturally).
func (lg *LoadGen) Stop() { lg.stopped = true }

// Served reports completed request-response pairs.
func (lg *LoadGen) Served() uint64 { return lg.served }

// Throughput reports requests/s over the elapsed window.
func (lg *LoadGen) Throughput(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(lg.served) / elapsed.Seconds()
}
