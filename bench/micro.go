package main

import (
	"flag"
	"math/rand/v2"
	"testing"

	"coregap/internal/granule"
	"coregap/internal/rpc"
	"coregap/internal/sim"
	"coregap/internal/trace"
	"coregap/internal/uarch"
)

// microTime is each microbenchmark's target run time.
const microTime = "100ms"

// microbenchmarks returns one benchmark per microNames entry, in that
// order, with inputs drawn from seed. Each times public calls on one
// layer's hot path.
func microbenchmarks(seed uint64) []func(b *testing.B) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))

	// A core executing a random sequence of domains and footprints.
	type touch struct {
		d          uarch.DomainID
		footprint  float64
		secretFrac float64
	}
	touches := make([]touch, 256)
	for i := range touches {
		d := uarch.DomainHost
		if rng.IntN(2) == 1 {
			d = uarch.Guest(rng.IntN(4))
		}
		touches[i] = touch{d, 0.01 + 0.3*rng.Float64(), 0.5 * rng.Float64()}
	}

	delays := make([]sim.Duration, 256)
	for i := range delays {
		delays[i] = sim.Duration(1 + rng.IntN(int(10*sim.Microsecond)))
	}

	latNames := []string{"redis.latency", "netpipe.rtt", "vm0.vipi.latency", "null.async"}
	type lat struct {
		name string
		d    sim.Duration
	}
	lats := make([]lat, 256)
	for i := range lats {
		lats[i] = lat{latNames[rng.IntN(len(latNames))], sim.Duration(rng.IntN(int(sim.Millisecond)))}
	}

	const tableBytes = 1 << 30
	pas := make([]granule.PA, 256)
	for i := range pas {
		pas[i] = granule.PA(uint64(rng.IntN(tableBytes/granule.Size)) * granule.Size)
	}

	reqs := make([]any, 256)
	for i := range reqs {
		reqs[i] = &lats[i]
	}

	return []func(b *testing.B){
		func(b *testing.B) { // uarch.touch
			cs, src := uarch.NewCoreState(), sim.NewSource(seed)
			for i := 0; i < b.N; i++ {
				t := touches[i%len(touches)]
				cs.Touch(t.d, t.footprint, t.secretFrac, src)
			}
		},
		func(b *testing.B) { // uarch.residue: a victim fills, the attacker reads L1D
			cs, src := uarch.NewCoreState(), sim.NewSource(seed)
			for i := 0; i < b.N; i++ {
				t := touches[i%len(touches)]
				cs.Touch(t.d, t.footprint, t.secretFrac, src)
				sink = len(cs.Buffer(uarch.L1D).Residue(uarch.Guest(7)))
			}
		},
		func(b *testing.B) { // sim.after_step: schedule one event, fire one, 64 pending
			eng := sim.NewEngine(seed)
			noop := func() {}
			for i := 0; i < 64; i++ {
				eng.After(delays[i], "micro", noop)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.After(delays[i%len(delays)], "micro", noop)
				eng.Step()
			}
		},
		func(b *testing.B) { // trace.lat: windowed latency recording
			set := trace.NewSet()
			set.SetWindow(10 * sim.Millisecond)
			for i := 0; i < b.N; i++ {
				l := lats[i%len(lats)]
				set.Lat(l.name, sim.Time(i)*sim.Time(sim.Microsecond), l.d)
			}
		},
		func(b *testing.B) { // rpc.roundtrip: post, take, complete, collect
			mb := rpc.NewMailbox(sim.NewEngine(seed), "micro")
			for i := 0; i < b.N; i++ {
				mb.Post(reqs[i%len(reqs)], 0)
				req, _ := mb.TryTake()
				mb.Complete(req, 0)
				mb.TryResponse()
			}
		},
		func(b *testing.B) { // granule.delegate: delegate and undelegate one granule
			tbl := granule.NewTable(tableBytes).Bind(sim.NewEngine(seed))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pa := pas[i%len(pas)]
				if err := tbl.Delegate(pa); err != nil {
					b.Fatal(err)
				}
				if err := tbl.Undelegate(pa); err != nil {
					b.Fatal(err)
				}
			}
		},
	}
}

// sink keeps a microbenchmark's result live, so the compiler cannot drop
// the call.
var sink int

// runMicro runs every microbenchmark and reports ns and allocations per
// operation by metric name.
func runMicro(seed uint64) map[string]float64 {
	testing.Init()
	if err := flag.Set("test.benchtime", microTime); err != nil {
		panic(err) // testing.Init registers the flag
	}
	out := map[string]float64{}
	for i, fn := range microbenchmarks(seed) {
		res := testing.Benchmark(fn)
		n := float64(max(res.N, 1))
		out[microNames[i]+"_ns"] = float64(res.T.Nanoseconds()) / n
		out[microNames[i]+"_allocs"] = float64(res.MemAllocs) / n
	}
	return out
}
