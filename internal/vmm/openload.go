package vmm

import (
	"coregap/internal/sim"
)

// ArrivalKind names an open-loop arrival process.
type ArrivalKind int

// Arrival processes.
const (
	// ArrivalPoisson draws i.i.d. exponential interarrivals: the
	// classical open-loop M/./1 offered load.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalBursty modulates a Poisson process with a deterministic
	// ON/OFF duty cycle: during ON the instantaneous rate is
	// rate/BurstDuty (so the long-run mean stays at rate), during OFF no
	// requests arrive. This is the adversarial arrival shape for tail
	// SLOs — the same mean load arrives in concentrated bursts.
	ArrivalBursty ArrivalKind = iota
)

func (k ArrivalKind) String() string {
	if k == ArrivalBursty {
		return "bursty"
	}
	return "poisson"
}

// arrivalBatch is how many arrival times each extension of the plan
// buffer precomputes. Big enough that the per-batch bookkeeping
// amortises away at high offered rates; small enough that low-rate runs
// don't draw far past their horizon.
const arrivalBatch = 64

// OpenLoadGen is the open-loop counterpart of LoadGen: requests arrive
// on their own clock — an arrival process with a fixed offered rate —
// whether or not earlier requests have completed. Unlike a closed loop,
// which self-throttles when the server slows down (coordinated
// omission), an open loop keeps offering load, so queueing delay shows
// up in full in the recorded latencies: this is the generator that makes
// tail-SLO and queueing-collapse behaviour visible.
//
// Arrivals round-robin over a pool of connection ids, so connection c's
// k-th request is arrival c + k·clients. The Redis guest model serves
// each connection strictly in order, so a reply on a connection answers
// its oldest unanswered request, and a count of answered requests per
// connection finds that request's send time in the arrival plan.
// Replies on different connections need not return in send order.
//
// The generator is built for offered rates in the hundreds of krps and
// connection pools in the millions: arrival times are precomputed in
// batches into a reusable plan buffer, requests are delivered to the
// guest by a single self-re-arming engine event (one event per request,
// not two, and no per-request closure), and no per-request record is
// kept. In steady state the send and response paths allocate nothing;
// memory grows with the span of arrivals from the oldest unanswered one
// and with the connections used, not with the offered rate or the run
// length.
type OpenLoadGen struct {
	peer     *Peer
	reqBytes int
	mkTag    func(client int) int
	metric   string

	kind ArrivalKind
	rate float64 // offered req/s (long-run mean)
	src  *sim.Source

	// Bursty shape: cycle period and ON fraction.
	burstPeriod sim.Duration
	burstDuty   float64

	clients int

	// wireDelay is the constant peer→guest wire time for reqBytes; the
	// delivery chain schedules arrivals directly at arrival+wireDelay
	// rather than bouncing through a separate per-request wire event.
	wireDelay sim.Duration

	// Arrival plan: absolute times of upcoming arrivals, generated
	// batch-at-a-time by the same draws the one-event-per-arrival
	// implementation made, so the schedule is bit-identical. times is
	// sorted and holds every arrival from the oldest unanswered one (the
	// send times replies look up); baseIdx is the arrival index of
	// times[0] (arrivals retired from the buffer, all answered); head
	// indexes the next undelivered arrival; low is the arrival index of
	// the oldest unanswered one. Invariant: whenever a delivery event is
	// armed for deadline D, times[len-1] >= D, so Sent can count arrivals
	// by binary search — every arrival at or before any observable
	// instant is in the buffer or retired.
	times   []sim.Time
	head    int
	baseIdx uint64
	low     uint64
	prev    sim.Time // last generated arrival time, seeds the next batch

	deliverFn func() // method value, created once: the chain callback

	// answered[c] counts connection c's answered requests; it grows as
	// connections are first used, which round-robin makes in order.
	answered []uint32

	served  uint64
	dropped uint64 // replies with no matching in-flight request (modelling bug guard)
	stopped bool
	stopAt  sim.Time
}

// OpenLoadConfig parameterizes NewOpenLoadGen.
type OpenLoadConfig struct {
	Kind     ArrivalKind
	Rate     float64 // offered req/s, > 0
	Clients  int     // connection pool size, > 0
	ReqBytes int
	// Bursty shape; ignored for Poisson. Zero values default to a 10 ms
	// period with a 20% duty cycle.
	BurstPeriod sim.Duration
	BurstDuty   float64
}

// NewOpenLoadGen builds the generator. mkTag produces the request tag
// for a connection id; latencies are recorded at completion time into
// the peer's metric set under metric. src must be one of the engine's
// named sources so runs stay deterministic.
func NewOpenLoadGen(peer *Peer, cfg OpenLoadConfig, mkTag func(int) int, metric string, src *sim.Source) *OpenLoadGen {
	if cfg.Rate <= 0 {
		panic("vmm: OpenLoadGen rate must be positive")
	}
	if cfg.Clients <= 0 {
		panic("vmm: OpenLoadGen needs at least one connection")
	}
	if cfg.BurstPeriod <= 0 {
		cfg.BurstPeriod = 10 * sim.Millisecond
	}
	if cfg.BurstDuty <= 0 || cfg.BurstDuty > 1 {
		cfg.BurstDuty = 0.2
	}
	g := &OpenLoadGen{
		peer:        peer,
		reqBytes:    cfg.ReqBytes,
		mkTag:       mkTag,
		metric:      metric,
		kind:        cfg.Kind,
		rate:        cfg.Rate,
		src:         src,
		burstPeriod: cfg.BurstPeriod,
		burstDuty:   cfg.BurstDuty,
		clients:     cfg.Clients,
		wireDelay:   peer.wireDelay(cfg.ReqBytes),
	}
	g.deliverFn = g.deliverNext
	return g
}

// Start generates the first arrival batch and arms the delivery chain.
func (g *OpenLoadGen) Start() {
	g.prev = g.peer.eng.Now()
	g.arm()
}

// meanGap is the mean interarrival time of the long-run offered rate.
func (g *OpenLoadGen) meanGap() sim.Duration {
	return sim.Duration(1e9 / g.rate)
}

// gapFrom draws the next interarrival according to the arrival process,
// with prev standing in for "now at the previous arrival" — the draws
// and the duty-cycle phase arithmetic are exactly what a generator
// scheduling one event per arrival would compute, so batching changes
// nothing observable.
func (g *OpenLoadGen) gapFrom(prev sim.Time) sim.Duration {
	switch g.kind {
	case ArrivalBursty:
		// Inside an ON phase the instantaneous rate is rate/duty; a draw
		// that lands past the ON boundary skips the OFF remainder of the
		// cycle, preserving the long-run mean.
		on := sim.Duration(float64(g.burstPeriod) * g.burstDuty)
		gap := g.src.Exp(sim.Duration(float64(g.meanGap()) * g.burstDuty))
		phase := sim.Duration(int64(prev) % int64(g.burstPeriod))
		if phase+gap >= on {
			// Carry the overshoot into the next ON phase.
			gap += g.burstPeriod - on
		}
		return gap
	default:
		return g.src.Exp(g.meanGap())
	}
}

// extendBatch appends arrivalBatch precomputed arrival times to the plan.
func (g *OpenLoadGen) extendBatch() {
	if n := len(g.times); n+arrivalBatch > cap(g.times) {
		// Double: behind a deep backlog the buffer grows with it, and
		// append's slower growth of large slices would copy it more
		// often.
		grown := make([]sim.Time, n, max(2*cap(g.times), 4*arrivalBatch))
		copy(grown, g.times)
		g.times = grown
	}
	prev := g.prev
	for i := 0; i < arrivalBatch; i++ {
		prev = prev.Add(g.gapFrom(prev))
		g.times = append(g.times, prev)
	}
	g.prev = prev
}

// arm schedules the delivery event for the next planned arrival,
// retiring the answered prefix of the plan buffer and extending the
// buffer far enough that the Sent binary search stays complete (see the
// times invariant on OpenLoadGen).
func (g *OpenLoadGen) arm() {
	if done := int(g.low - g.baseIdx); done > 0 && 2*done >= len(g.times) {
		// Retire the answered prefix, keeping capacity, once it is half
		// the buffer, so that a deep backlog behind it is not copied
		// every batch. Answered arrivals were delivered, so they are at
		// or before every future Sent cutoff, and folding them into
		// baseIdx keeps the binary search exact.
		g.baseIdx = g.low
		n := copy(g.times, g.times[done:])
		g.times = g.times[:n]
		g.head -= done
	}
	if g.head >= len(g.times) {
		g.extendBatch()
	}
	next := g.times[g.head]
	if g.stopped && next > g.stopAt {
		return
	}
	deadline := next.Add(g.wireDelay)
	for g.times[len(g.times)-1] < deadline {
		g.extendBatch()
	}
	g.peer.eng.At(deadline, "openload-deliver", g.deliverFn)
}

// deliverNext is the chain callback: it delivers the head arrival to the
// guest (the request's wire time has elapsed — this is the moment the
// old per-request wire event fired) and re-arms for the next arrival.
func (g *OpenLoadGen) deliverNext() {
	at := g.times[g.head]
	if g.stopped && at > g.stopAt {
		return
	}
	client := int(g.baseIdx+uint64(g.head)) % g.clients
	g.head++
	if client == len(g.answered) {
		if client == cap(g.answered) {
			grown := make([]uint32, client, min(g.clients, max(arrivalBatch, 2*client)))
			copy(grown, g.answered)
			g.answered = grown
		}
		g.answered = g.answered[:client+1]
	}
	if f := g.peer.sendToGuest; f != nil {
		f(0, g.reqBytes, g.mkTag(client))
	}
	g.arm()
}

// OnResponse is called when the guest's reply for a connection arrives:
// it answers the connection's oldest unanswered request.
func (g *OpenLoadGen) OnResponse(bytes, tag int) {
	client := tag & 0xffffff
	if client >= g.clients {
		return
	}
	delivered := g.baseIdx + uint64(g.head)
	if client >= len(g.answered) {
		g.dropped++
		return
	}
	clients := uint64(g.clients)
	req := uint64(client) + uint64(g.answered[client])*clients
	if req >= delivered {
		g.dropped++
		return
	}
	sent := g.times[req-g.baseIdx]
	g.answered[client]++
	for g.low < delivered && uint64(g.answered[g.low%clients]) > g.low/clients {
		g.low++
	}
	now := g.peer.eng.Now()
	g.peer.met.Lat(g.metric, now, now.Sub(sent))
	g.served++
}

// Stop ends the arrival process: arrivals after this instant are never
// delivered, while requests already on the wire drain naturally.
func (g *OpenLoadGen) Stop() {
	if g.stopped {
		return
	}
	g.stopped = true
	g.stopAt = g.peer.eng.Now()
}

// Sent reports requests offered so far: arrivals at or before now (or
// the stop time, once stopped). The count is a binary search over the
// arrival plan — the times invariant guarantees the plan extends past
// any instant at which Sent can run — so offering a request costs no
// counter update on the delivery path.
func (g *OpenLoadGen) Sent() uint64 {
	cutoff := g.peer.eng.Now()
	if g.stopped && g.stopAt < cutoff {
		cutoff = g.stopAt
	}
	// Manual upper bound (first index with times[i] > cutoff):
	// sort.Search would force the bound into a closure and allocate.
	lo, hi := 0, len(g.times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.times[mid] <= cutoff {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.baseIdx + uint64(lo)
}

// Served reports completed request-response pairs.
func (g *OpenLoadGen) Served() uint64 { return g.served }

// Dropped reports replies that matched no in-flight request.
func (g *OpenLoadGen) Dropped() uint64 { return g.dropped }

// Backlog reports requests offered but not yet answered.
func (g *OpenLoadGen) Backlog() int { return int(g.Sent() - g.served) }
