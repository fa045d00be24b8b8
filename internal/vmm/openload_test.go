package vmm

import (
	"testing"

	"coregap/internal/sim"
	"coregap/internal/trace"
)

// echoLoadGen wires an OpenLoadGen to a peer whose guest echoes every
// request synchronously at delivery time: the generator's own send and
// response paths run back-to-back with no VMM model in between, which is
// exactly what the zero-alloc gate and the arrival benchmark want to
// measure.
func echoLoadGen(kind ArrivalKind, rate float64, clients int) (*sim.Engine, *OpenLoadGen) {
	eng := sim.NewEngine(7)
	peer := NewPeer(eng, DefaultCosts(), trace.NewSet())
	lg := NewOpenLoadGen(peer, OpenLoadConfig{
		Kind: kind, Rate: rate, Clients: clients, ReqBytes: 512,
	}, func(c int) int { return c }, "openload.lat", eng.Source("openload"))
	peer.Connect(func(vcpu, bytes, tag int) { lg.OnResponse(bytes, tag) })
	return eng, lg
}

// TestZeroAllocOpenLoad: once the arrival plan, record arena, and engine
// pools are warm, offering and answering load allocates nothing — the
// gate that keeps 500 krps runs from scaling GC pressure with the
// offered rate. Mirrors the engine's TestZeroAlloc* gates.
func TestZeroAllocOpenLoad(t *testing.T) {
	for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalBursty} {
		eng, lg := echoLoadGen(kind, 500_000, 256)
		lg.Start()
		eng.RunUntil(sim.Time(100 * sim.Millisecond)) // warm pools and plan buffer
		avg := testing.AllocsPerRun(10, func() {
			eng.RunUntil(eng.Now().Add(sim.Millisecond)) // ~500 arrivals per run
			_ = lg.Sent()
			_ = lg.Backlog()
		})
		if avg != 0 {
			t.Errorf("%v: %.1f allocs per 1ms of 500 krps steady state, want 0", kind, avg)
		}
	}
}

// TestOpenLoadSentLazyCount: Sent counts arrivals at or before now (or
// the stop instant) without a counter on the delivery path. With a
// synchronous echo every delivered request is served immediately, so at
// any instant Sent−Served is exactly the arrivals still on the wire —
// bounded by the wire delay's worth of offered load — and after a
// stop+drain the two must meet.
func TestOpenLoadSentLazyCount(t *testing.T) {
	eng, lg := echoLoadGen(ArrivalPoisson, 500_000, 64)
	lg.Start()
	wireReqs := int(float64(lg.wireDelay) / 1e9 * lg.rate) // mean arrivals per wire delay
	prev := uint64(0)
	for step := 1; step <= 20; step++ {
		eng.RunUntil(sim.Time(step) * sim.Time(sim.Millisecond))
		sent := lg.Sent()
		if sent < prev {
			t.Fatalf("Sent went backwards: %d -> %d", prev, sent)
		}
		prev = sent
		if gap := int(sent - lg.Served()); gap > 10*(wireReqs+1) {
			t.Fatalf("step %d: sent-served = %d, far beyond wire occupancy ~%d", step, gap, wireReqs)
		}
	}
	lg.Stop()
	eng.Run()
	if lg.Sent() != lg.Served() {
		t.Fatalf("after drain sent=%d served=%d", lg.Sent(), lg.Served())
	}
	if lg.Backlog() != 0 || lg.Dropped() != 0 {
		t.Fatalf("backlog=%d dropped=%d after drain", lg.Backlog(), lg.Dropped())
	}
}

// TestOpenLoadMillionConnections: a 2^20-connection pool round-robins
// correctly, with no per-connection or per-request record beyond a
// count of each used connection's answered requests.
func TestOpenLoadMillionConnections(t *testing.T) {
	eng, lg := echoLoadGen(ArrivalPoisson, 500_000, 1<<20)
	lg.Start()
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	lg.Stop()
	eng.Run()
	if lg.Sent() < 9_000 || lg.Sent() > 11_000 {
		t.Fatalf("sent = %d, want ~10000", lg.Sent())
	}
	if lg.Served() != lg.Sent() || lg.Dropped() != 0 {
		t.Fatalf("served=%d sent=%d dropped=%d", lg.Served(), lg.Sent(), lg.Dropped())
	}
	// With every request answered at once, the plan buffer holds about
	// a wire delay's worth of arrivals and a batch, not the run.
	if len(lg.times) > 4*arrivalBatch {
		t.Fatalf("plan buffer holds %d arrivals for a synchronous echo", len(lg.times))
	}
}

// TestOpenLoadFIFOMatching: with replies delayed a fixed amount, several
// requests are in flight per connection at once and responses must match
// sends in FIFO order — every recorded latency equals the wire delay
// plus the service delay exactly.
func TestOpenLoadFIFOMatching(t *testing.T) {
	eng := sim.NewEngine(7)
	met := trace.NewSet()
	peer := NewPeer(eng, DefaultCosts(), met)
	lg := NewOpenLoadGen(peer, OpenLoadConfig{
		Kind: ArrivalPoisson, Rate: 200_000, Clients: 4, ReqBytes: 512,
	}, func(c int) int { return c }, "openload.lat", eng.Source("openload"))
	const service = 40 * sim.Microsecond
	peer.Connect(func(vcpu, bytes, tag int) {
		eng.After(service, "echo-delay", func() { lg.OnResponse(bytes, tag) })
	})
	lg.Start()
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	lg.Stop()
	eng.Run()
	if lg.Dropped() != 0 || lg.Backlog() != 0 {
		t.Fatalf("dropped=%d backlog=%d", lg.Dropped(), lg.Backlog())
	}
	want := lg.wireDelay + service
	h := met.Hist("openload.lat")
	if h.Count() != int(lg.Served()) {
		t.Fatalf("samples %d != served %d", h.Count(), lg.Served())
	}
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != want {
			t.Fatalf("p%g latency = %v, want exactly %v (FIFO mismatch)", p, got, want)
		}
	}
}

// TestOpenLoadOvertakingReplies: replies on connection c take c×15 µs,
// so later requests on low connections overtake earlier ones on high
// connections, and several requests are in flight per connection. Each
// reply must still answer its own connection's oldest request: the
// recorded latencies sum to exactly the wire delay plus each reply's
// service time.
func TestOpenLoadOvertakingReplies(t *testing.T) {
	eng := sim.NewEngine(7)
	met := trace.NewSet()
	peer := NewPeer(eng, DefaultCosts(), met)
	lg := NewOpenLoadGen(peer, OpenLoadConfig{
		Kind: ArrivalPoisson, Rate: 300_000, Clients: 8, ReqBytes: 512,
	}, func(c int) int { return c }, "openload.lat", eng.Source("openload"))
	var want sim.Duration
	peer.Connect(func(vcpu, bytes, tag int) {
		service := sim.Duration(tag) * 15 * sim.Microsecond
		eng.After(service, "echo-delay", func() {
			want += lg.wireDelay + service
			lg.OnResponse(bytes, tag)
		})
	})
	lg.Start()
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	lg.Stop()
	eng.Run()
	if lg.Served() < 2_500 || lg.Dropped() != 0 || lg.Backlog() != 0 {
		t.Fatalf("served=%d dropped=%d backlog=%d", lg.Served(), lg.Dropped(), lg.Backlog())
	}
	if got := met.Hist("openload.lat").Sum(); got != want {
		t.Fatalf("latencies sum to %v, want %v (a reply answered another request)", got, want)
	}
}

// BenchmarkOpenLoopArrivals: cost of the full open-loop request
// lifecycle — batched arrival generation, chain delivery, FIFO record,
// synchronous response — at a 500 krps offered rate. One op is 100 µs of
// simulated time, ~50 requests.
func BenchmarkOpenLoopArrivals(b *testing.B) {
	eng, lg := echoLoadGen(ArrivalPoisson, 500_000, 1<<10)
	lg.Start()
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunUntil(eng.Now().Add(100 * sim.Microsecond))
	}
	b.StopTimer()
	if lg.Dropped() != 0 {
		b.Fatalf("dropped = %d", lg.Dropped())
	}
	b.ReportMetric(float64(lg.Served())/float64(b.N), "reqs/op")
}
