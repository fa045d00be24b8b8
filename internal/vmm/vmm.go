// Package vmm models the user-space VMM (kvmtool in the paper, §5.1) and
// its device back-ends: virtio-net and virtio-blk emulated on host
// threads, and an SR-IOV virtual function whose data path bypasses the
// host entirely (§5.3). Device completions are delivered to the guest
// through an injection callback supplied by the orchestrator, which
// routes them over the mode-appropriate interrupt path (same-core KVM
// injection for shared-core VMs, host-requested exits or delegated
// injection for core-gapped CVMs).
package vmm

import (
	"coregap/internal/guest"
	"coregap/internal/host"
	"coregap/internal/sim"
	"coregap/internal/trace"
)

// InjectFunc delivers a device event to a guest vCPU. The orchestrator
// implements the mode-specific delivery path and its latency.
type InjectFunc func(vcpu int, ev guest.Event)

// Costs carries the host-side device emulation cost model. Values are
// derived from the latency/throughput levels of Figs. 8-9: virtio's
// per-interaction costs in the few-microsecond range, SR-IOV with no host
// data-path work at all.
type Costs struct {
	// VirtioNet: per-packet emulation work (TX and RX each).
	NetPerPacket sim.Duration
	NetPacketMTU int
	// VirtioBlk: per-request emulation work plus per-byte copy.
	BlkPerRequest     sim.Duration
	BlkNsPerByte      float64
	BlkMediaLatency   sim.Duration // storage access time
	BlkMediaNsPerByte float64      // storage streaming cost
	// SR-IOV: DMA setup/doorbell handled in hardware.
	VFDMALatency sim.Duration
	// Wire: one-way network latency to the peer machine, and streaming
	// cost per byte (200 GbE-class link).
	WireLatency   sim.Duration
	WireNsPerByte float64
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{
		NetPerPacket:      2500 * sim.Nanosecond,
		NetPacketMTU:      1500,
		BlkPerRequest:     5 * sim.Microsecond,
		BlkNsPerByte:      0.15,
		BlkMediaLatency:   18 * sim.Microsecond,
		BlkMediaNsPerByte: 0.33, // ~3 GB/s NVMe stream
		VFDMALatency:      2 * sim.Microsecond,
		WireLatency:       14 * sim.Microsecond,
		WireNsPerByte:     0.04, // 200 Gb/s
	}
}

// VMM is one guest's user-space device model process.
type VMM struct {
	k     *host.Kernel
	eng   *sim.Engine
	met   *trace.Set
	costs Costs

	// ioThread runs all virtio emulation for this VMM (kvmtool's I/O
	// thread). It is a normal-class thread: under core gapping it is
	// pinned to the host core together with every other VMM thread, which
	// is where the Fig. 9 contention comes from.
	ioThread *host.Thread

	inject InjectFunc

	// calls recycles the payloads of device continuations in flight.
	calls sim.Thunks[devCall]

	Blk *BlkDevice
	Net *NetDevice
	VF  *VFDevice
}

// New creates a VMM whose I/O thread is pinned to ioCore (hw.NoCore for
// unpinned, as in the shared-core baseline).
func New(name string, k *host.Kernel, costs Costs, ioCore int, met *trace.Set) *VMM {
	v := &VMM{
		k:     k,
		eng:   k.Engine(),
		met:   met,
		costs: costs,
	}
	pin := hostPin(ioCore)
	v.ioThread = k.NewThread(name+"/io", host.ClassNormal, pin)
	v.Blk = &BlkDevice{vmm: v, vq: NewVirtqueue(DefaultQueueSize)}
	v.Net = &NetDevice{vmm: v, txq: NewVirtqueue(DefaultQueueSize)}
	v.VF = &VFDevice{vmm: v}
	return v
}

// SetInject installs the guest event delivery path.
func (v *VMM) SetInject(fn InjectFunc) { v.inject = fn }

// Inject forwards an event through the orchestrator-provided path.
func (v *VMM) Inject(vcpu int, ev guest.Event) {
	if v.inject != nil {
		v.inject(vcpu, ev)
	}
}

// IOThread exposes the emulation thread (for accounting and pinning
// assertions in tests).
func (v *VMM) IOThread() *host.Thread { return v.ioThread }

// Costs reports the device cost model.
func (v *VMM) Costs() Costs { return v.costs }

// Submit routes a guest I/O request to the right device model.
func (v *VMM) Submit(vcpu int, req guest.IORequest) {
	switch req.Dev {
	case guest.VirtioBlk:
		v.Blk.Submit(vcpu, req)
	case guest.VirtioNet:
		v.Net.Submit(vcpu, req)
	case guest.SRIOVNet:
		v.VF.Submit(vcpu, req)
	}
}

// devCall is the payload of a device continuation in flight: the VMM,
// the guest vCPU served, the request (TX and block paths) or the
// delivered bytes and tag (RX paths), and the media or wire time still
// to elapse.
type devCall struct {
	v          *VMM
	vcpu       int
	req        guest.IORequest
	bytes, tag int
	delay      sim.Duration
}

// bind returns a callback running fn(c) for this VMM (see sim.Thunks).
func (v *VMM) bind(fn func(devCall), c devCall) func() {
	c.v = v
	return v.calls.Bind(fn, c)
}

func (v *VMM) count(name string) {
	if v.met != nil {
		v.met.Counter(name).Inc()
	}
}
