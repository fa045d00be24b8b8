package vmm

import (
	"testing"

	"coregap/internal/gic"
	"coregap/internal/guest"
	"coregap/internal/host"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/trace"
)

func newVMM(t *testing.T, cores, ioCore int) (*sim.Engine, *host.Kernel, *VMM) {
	t.Helper()
	eng := sim.NewEngine(11)
	m := hw.NewMachine(eng, hw.DefaultConfig(cores))
	k := host.NewKernel(m, gic.NewDistributor(m))
	v := New("vm0", k, DefaultCosts(), ioCore)
	return eng, k, v
}

func TestBlkRequestLifecycle(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	var got []guest.Event
	v.SetInject(func(vcpu int, ev guest.Event) { got = append(got, ev) })

	v.Submit(0, guest.IORequest{Dev: guest.VirtioBlk, Bytes: 4096, Write: true, Tag: 7})
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("completions = %d", len(got))
	}
	ev := got[0]
	if ev.Kind != guest.EvIOComplete || ev.Dev != guest.VirtioBlk || ev.Bytes != 4096 || ev.Tag != 7 {
		t.Fatalf("event = %+v", ev)
	}
	if v.Blk.Requests() != 1 || v.Blk.Completed() != 1 {
		t.Fatal("blk accounting")
	}
	// End-to-end latency must include emulation + media + completion
	// (writes see the 70% write-cache media latency).
	c := v.Costs()
	min := c.BlkPerRequest + c.BlkMediaLatency*7/10 + sim.Microsecond
	if eng.Now() < sim.Time(min) {
		t.Fatalf("completed at %v, faster than cost floor %v", eng.Now(), min)
	}
}

func TestBlkLargerRequestsTakeLonger(t *testing.T) {
	measure := func(bytes int) sim.Time {
		eng, _, v := newVMM(t, 2, 1)
		v.SetInject(func(int, guest.Event) {})
		v.Submit(0, guest.IORequest{Dev: guest.VirtioBlk, Bytes: bytes})
		eng.Run()
		return eng.Now()
	}
	small, big := measure(4096), measure(1<<20)
	if big <= small {
		t.Fatalf("1MiB (%v) not slower than 4KiB (%v)", big, small)
	}
}

func TestNetTxReachesPeer(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	var gotBytes, gotTag int
	v.Net.ConnectPeer(func(bytes, tag int) { gotBytes, gotTag = bytes, tag })
	v.Submit(0, guest.IORequest{Dev: guest.VirtioNet, Bytes: 9000, Tag: 3})
	eng.Run()
	if gotBytes != 9000 || gotTag != 3 {
		t.Fatalf("peer got %d/%d", gotBytes, gotTag)
	}
	// 9000B = 6 MTU packets.
	if v.Net.TxPackets() != 6 {
		t.Fatalf("tx packets = %d, want 6", v.Net.TxPackets())
	}
}

func TestNetRxInjectsCoalesced(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	events := 0
	v.SetInject(func(vcpu int, ev guest.Event) {
		events++
		if ev.Kind != guest.EvPacket || ev.Bytes != 4500 {
			t.Fatalf("event = %+v", ev)
		}
	})
	v.Net.DeliverToGuest(0, 4500, 0)
	eng.Run()
	if events != 1 {
		t.Fatalf("events = %d, want 1 (coalesced)", events)
	}
	if v.Net.RxPackets() != 3 {
		t.Fatalf("rx packets = %d", v.Net.RxPackets())
	}
}

func TestVFBypassesHostCPU(t *testing.T) {
	eng, k, v := newVMM(t, 2, 1)
	delivered := false
	v.VF.ConnectPeer(func(bytes, tag int) { delivered = true })
	v.Submit(0, guest.IORequest{Dev: guest.SRIOVNet, Bytes: 64 << 10})
	eng.Run()
	if !delivered {
		t.Fatal("vf tx never arrived")
	}
	if v.IOThread().CPUTime() != 0 {
		t.Fatalf("SR-IOV consumed %v host CPU on the data path", v.IOThread().CPUTime())
	}
	_ = k
}

func TestVFFasterThanVirtioForBulk(t *testing.T) {
	measure := func(dev guest.DeviceClass) sim.Time {
		eng, _, v := newVMM(t, 2, 1)
		done := sim.Time(0)
		fn := func(bytes, tag int) { done = eng.Now() }
		v.Net.ConnectPeer(fn)
		v.VF.ConnectPeer(fn)
		v.Submit(0, guest.IORequest{Dev: dev, Bytes: 1 << 20})
		eng.Run()
		return done
	}
	virtio, vf := measure(guest.VirtioNet), measure(guest.SRIOVNet)
	if vf >= virtio {
		t.Fatalf("SR-IOV (%v) not faster than virtio (%v) for 1MiB", vf, virtio)
	}
}

func TestIOThreadPinning(t *testing.T) {
	eng, _, v := newVMM(t, 4, 2)
	v.SetInject(func(int, guest.Event) {})
	v.Submit(0, guest.IORequest{Dev: guest.VirtioBlk, Bytes: 4096})
	eng.Run()
	if v.IOThread().Core() != 2 {
		t.Fatalf("io thread ran on core %d, want 2", v.IOThread().Core())
	}
	if v.IOThread().Pin() != 2 {
		t.Fatal("pin not recorded")
	}
}

func TestPeerPingPong(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	met := trace.NewSet()
	peer := NewPeer(eng, v.Costs(), met)
	hist := met.Hist("pingpong.rtt")

	// Echo guest: reflect every delivery straight back via the VF.
	peer.Connect(func(vcpu, bytes, tag int) {
		// Model zero guest time: immediately transmit back.
		v.VF.Submit(vcpu, guest.IORequest{Dev: guest.SRIOVNet, Bytes: bytes, Tag: tag})
	})
	done := false
	pp := NewPingPong(peer, 1024, 10, "pingpong.rtt", func() { done = true })
	v.VF.ConnectPeer(pp.OnEcho)
	pp.Start()
	eng.Run()
	if !done || pp.Done() != 10 {
		t.Fatalf("rounds = %d", pp.Done())
	}
	if hist.Count() != 10 {
		t.Fatalf("rtt samples = %d", hist.Count())
	}
	// RTT floor: 2 wire crossings + DMA costs.
	c := v.Costs()
	floor := 2 * c.WireLatency
	if hist.Min() < floor {
		t.Fatalf("rtt %v below wire floor %v", hist.Min(), floor)
	}
}

func TestLoadGenClosedLoop(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	met := trace.NewSet()
	peer := NewPeer(eng, v.Costs(), met)
	hist := met.Hist("loadgen.lat")

	// Echo server guest.
	peer.Connect(func(vcpu, bytes, tag int) {
		v.VF.Submit(vcpu, guest.IORequest{Dev: guest.SRIOVNet, Bytes: 128, Tag: tag})
	})
	lg := NewLoadGen(peer, 10, 512, func(c int) int { return c }, "loadgen.lat")
	v.VF.ConnectPeer(lg.OnResponse)
	lg.Start()
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	lg.Stop()
	eng.Run()
	if lg.Served() < 100 {
		t.Fatalf("served = %d, want many", lg.Served())
	}
	if hist.Count() != int(lg.Served()) {
		t.Fatal("latency samples != served")
	}
	if lg.Throughput(10*sim.Millisecond) <= 0 {
		t.Fatal("throughput")
	}
}

func TestSubmitRoutesToDevices(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	v.SetInject(func(int, guest.Event) {})
	v.Net.ConnectPeer(func(int, int) {})
	v.VF.ConnectPeer(func(int, int) {})
	v.Submit(0, guest.IORequest{Dev: guest.VirtioBlk, Bytes: 512})
	v.Submit(0, guest.IORequest{Dev: guest.VirtioNet, Bytes: 512})
	v.Submit(0, guest.IORequest{Dev: guest.SRIOVNet, Bytes: 512})
	eng.Run()
	if v.Blk.Requests() != 1 || v.Net.TxPackets() != 1 || v.VF.TxBytes() != 512 {
		t.Fatal("routing wrong")
	}
}

// TestOpenLoadGenPoisson: open-loop arrivals against an echo guest — the
// offered rate is met independent of service latency, every reply
// matches an in-flight request, and latencies flow to the named metric.
func TestOpenLoadGenPoisson(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	met := trace.NewSet()
	peer := NewPeer(eng, v.Costs(), met)
	peer.Connect(func(vcpu, bytes, tag int) {
		v.VF.Submit(vcpu, guest.IORequest{Dev: guest.SRIOVNet, Bytes: 128, Tag: tag})
	})
	lg := NewOpenLoadGen(peer, OpenLoadConfig{
		Kind: ArrivalPoisson, Rate: 50_000, Clients: 10, ReqBytes: 512,
	}, func(c int) int { return c }, "openload.lat", eng.Source("openload"))
	v.VF.ConnectPeer(lg.OnResponse)
	lg.Start()
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	lg.Stop()
	eng.Run() // drain in-flight requests

	// 50 krps for 20 ms -> ~1000 arrivals; Poisson spread stays well
	// inside 3 sigma (~95) for any seed.
	if lg.Sent() < 900 || lg.Sent() > 1100 {
		t.Fatalf("sent = %d, want ~1000", lg.Sent())
	}
	if lg.Dropped() != 0 {
		t.Fatalf("dropped = %d replies matched no request", lg.Dropped())
	}
	if lg.Backlog() != 0 {
		t.Fatalf("backlog = %d after drain", lg.Backlog())
	}
	if got := met.Hist("openload.lat").Count(); got != int(lg.Served()) {
		t.Fatalf("latency samples %d != served %d", got, lg.Served())
	}
}

// TestOpenLoadGenBursty: the ON/OFF process hits the same mean rate as
// Poisson while concentrating arrivals in the duty-cycle ON phase.
func TestOpenLoadGenBursty(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	met := trace.NewSet()
	peer := NewPeer(eng, v.Costs(), met)
	peer.Connect(func(vcpu, bytes, tag int) {
		v.VF.Submit(vcpu, guest.IORequest{Dev: guest.SRIOVNet, Bytes: 128, Tag: tag})
	})
	lg := NewOpenLoadGen(peer, OpenLoadConfig{
		Kind: ArrivalBursty, Rate: 50_000, Clients: 10, ReqBytes: 512,
	}, func(c int) int { return c }, "openload.lat", eng.Source("openload"))
	v.VF.ConnectPeer(lg.OnResponse)
	lg.Start()
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	lg.Stop()
	eng.Run()

	if lg.Sent() < 800 || lg.Sent() > 1200 {
		t.Fatalf("sent = %d, want ~1000 at the same mean rate", lg.Sent())
	}
	if lg.Dropped() != 0 || lg.Backlog() != 0 {
		t.Fatalf("dropped=%d backlog=%d after drain", lg.Dropped(), lg.Backlog())
	}
}

// TestOpenLoadGenValidation: nonsensical configs must refuse loudly.
func TestOpenLoadGenValidation(t *testing.T) {
	eng, _, v := newVMM(t, 2, 1)
	peer := NewPeer(eng, v.Costs(), trace.NewSet())
	for _, cfg := range []OpenLoadConfig{
		{Kind: ArrivalPoisson, Rate: 0, Clients: 10},
		{Kind: ArrivalPoisson, Rate: -5, Clients: 10},
		{Kind: ArrivalPoisson, Rate: 1000, Clients: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewOpenLoadGen(%+v) did not panic", cfg)
				}
			}()
			NewOpenLoadGen(peer, cfg, func(c int) int { return c }, "x", eng.Source("x"))
		}()
	}
}
