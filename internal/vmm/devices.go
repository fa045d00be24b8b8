package vmm

import (
	"coregap/internal/guest"
	"coregap/internal/hw"
	"coregap/internal/sim"
)

func hostPin(core int) hw.CoreID {
	if core < 0 {
		return hw.NoCore
	}
	return hw.CoreID(core)
}

// BlkDevice is the virtio-blk back-end: every request costs host CPU on
// the VMM I/O thread (descriptor parsing, bounce copy) plus storage media
// time, then a completion that is injected into the guest.
type BlkDevice struct {
	vmm *VMM
	// vq is the request virtqueue; a full ring backpressures the driver
	// (doorbell retries, each of which costs the guest an exit path).
	vq *Virtqueue

	requests  uint64
	bytes     uint64
	completed uint64
}

// Submit processes a guest block request.
func (d *BlkDevice) Submit(vcpu int, req guest.IORequest) {
	v := d.vmm
	c := v.costs
	if !d.vq.Push(vcpu, req) {
		// Ring full: the driver retries after the device makes progress.
		v.eng.Count(cBlkRingFull)
		v.eng.After(10*sim.Microsecond, "blk-ring-retry", v.bind(blkRetry, devCall{vcpu: vcpu, req: req}))
		return
	}
	d.requests++
	d.bytes += uint64(req.Bytes)
	v.eng.Count(cBlkRequests)

	emul := c.BlkPerRequest + sim.Duration(c.BlkNsPerByte*float64(req.Bytes))
	media := c.BlkMediaLatency + sim.Duration(c.BlkMediaNsPerByte*float64(req.Bytes))
	if req.Write {
		// Writes land in the device's write cache: lower access latency.
		media = media * 7 / 10
	}
	v.k.Submit(v.ioThread, "blk-emul", emul, v.bind(blkEmulated, devCall{delay: media}))
}

func blkRetry(c devCall) { c.v.Blk.Submit(c.vcpu, c.req) }

// blkEmulated takes the next request off the ring once its emulation
// ran, and starts its media access (c.delay).
func blkEmulated(c devCall) {
	v := c.v
	qv, qreq, ok := v.Blk.vq.Pop()
	if !ok {
		return
	}
	v.eng.After(c.delay, "blk-media", v.bind(blkMediaDone, devCall{vcpu: qv, req: qreq}))
}

// blkMediaDone runs completion processing back on the I/O thread, then
// the interrupt to the guest.
func blkMediaDone(c devCall) {
	c.v.k.Submit(c.v.ioThread, "blk-complete", sim.Microsecond, c.v.bind(blkCompleted, c))
}

func blkCompleted(c devCall) {
	d := c.v.Blk
	d.vq.Complete()
	d.completed++
	c.v.Inject(c.vcpu, guest.Event{
		Kind: guest.EvIOComplete, Dev: guest.VirtioBlk,
		Bytes: c.req.Bytes, Tag: c.req.Tag,
	})
}

// Requests reports submitted request count.
func (d *BlkDevice) Requests() uint64 { return d.requests }

// Queue exposes the request virtqueue.
func (d *BlkDevice) Queue() *Virtqueue { return d.vq }

// Completed reports completed request count.
func (d *BlkDevice) Completed() uint64 { return d.completed }

// NetDevice is the virtio-net back-end. TX: per-packet emulation on the
// I/O thread, then the wire. RX: per-packet emulation, then one coalesced
// EvPacket to the guest (NAPI-style).
type NetDevice struct {
	vmm *VMM
	// peer receives transmitted data (wire latency already applied).
	peer func(bytes, tag int)
	// txq is the transmit virtqueue.
	txq *Virtqueue

	txBytes, rxBytes uint64
	txPkts, rxPkts   uint64
}

// ConnectPeer attaches the external peer's receive function.
func (d *NetDevice) ConnectPeer(fn func(bytes, tag int)) { d.peer = fn }

func (d *NetDevice) packets(bytes int) int {
	mtu := d.vmm.costs.NetPacketMTU
	if mtu <= 0 {
		mtu = 1500
	}
	n := (bytes + mtu - 1) / mtu
	if n < 1 {
		n = 1
	}
	return n
}

// Submit transmits guest data to the peer.
func (d *NetDevice) Submit(vcpu int, req guest.IORequest) {
	v := d.vmm
	if !d.txq.Push(vcpu, req) {
		v.eng.Count(cNetRingFull)
		v.eng.After(10*sim.Microsecond, "net-ring-retry", v.bind(netRetry, devCall{vcpu: vcpu, req: req}))
		return
	}
	pkts := d.packets(req.Bytes)
	d.txPkts += uint64(pkts)
	d.txBytes += uint64(req.Bytes)
	v.eng.Count(cNetTX)

	work := sim.Duration(pkts) * v.costs.NetPerPacket
	wire := v.costs.WireLatency + sim.Duration(v.costs.WireNsPerByte*float64(req.Bytes))
	v.k.Submit(v.ioThread, "net-tx", work, v.bind(netTxDone, devCall{vcpu: vcpu, req: req, delay: wire}))
}

func netRetry(c devCall) { c.v.Net.Submit(c.vcpu, c.req) }

// netTxDone completes a transmit's emulation: the guest gets its
// TX-completion interrupt and the data leaves on the wire (c.delay).
func netTxDone(c devCall) {
	v, d := c.v, c.v.Net
	if _, _, ok := d.txq.Pop(); ok {
		d.txq.Complete()
	}
	// The vring TX-completion interrupt: the guest must reclaim its
	// descriptors. (SR-IOV has no such host-injected interrupt; this
	// is part of why emulated I/O is core gapping's worst case.)
	v.Inject(c.vcpu, guest.Event{Kind: guest.EvIOComplete, Dev: guest.VirtioNet, Bytes: c.req.Bytes, Tag: c.req.Tag})
	v.eng.After(c.delay, "net-wire", v.bind(netWireDone, c))
}

func netWireDone(c devCall) {
	if d := c.v.Net; d.peer != nil {
		d.peer(c.req.Bytes, c.req.Tag)
	}
}

// DeliverToGuest is the RX path: the peer's data arrives at the host NIC,
// is processed per-packet on the I/O thread, and lands in the guest as a
// single coalesced event.
func (d *NetDevice) DeliverToGuest(vcpu, bytes, tag int) {
	v := d.vmm
	pkts := d.packets(bytes)
	d.rxPkts += uint64(pkts)
	d.rxBytes += uint64(bytes)
	v.eng.Count(cNetRX)

	work := sim.Duration(pkts) * v.costs.NetPerPacket
	v.k.Submit(v.ioThread, "net-rx", work, v.bind(netRxDone, devCall{vcpu: vcpu, bytes: bytes, tag: tag}))
}

func netRxDone(c devCall) {
	c.v.Inject(c.vcpu, guest.Event{Kind: guest.EvPacket, Dev: guest.VirtioNet, Bytes: c.bytes, Tag: c.tag})
}

// TxPackets reports transmitted packet count.
func (d *NetDevice) TxPackets() uint64 { return d.txPkts }

// TxQueue exposes the transmit virtqueue.
func (d *NetDevice) TxQueue() *Virtqueue { return d.txq }

// RxPackets reports received packet count.
func (d *NetDevice) RxPackets() uint64 { return d.rxPkts }

// VFDevice is an SR-IOV virtual function: data moves by DMA directly
// between guest memory and the NIC with no host CPU on the data path; the
// host serves "only to deliver interrupts" (§5.3).
type VFDevice struct {
	vmm  *VMM
	peer func(bytes, tag int)

	txBytes uint64
}

// ConnectPeer attaches the external peer's receive function.
func (d *VFDevice) ConnectPeer(fn func(bytes, tag int)) { d.peer = fn }

// Submit transmits guest data: pure hardware path.
func (d *VFDevice) Submit(vcpu int, req guest.IORequest) {
	v := d.vmm
	d.txBytes += uint64(req.Bytes)
	v.eng.Count(cVFTX)
	wire := v.costs.VFDMALatency + v.costs.WireLatency +
		sim.Duration(v.costs.WireNsPerByte*float64(req.Bytes))
	v.eng.After(wire, "vf-wire", v.bind(vfWireDone, devCall{req: req}))
}

func vfWireDone(c devCall) {
	if d := c.v.VF; d.peer != nil {
		d.peer(c.req.Bytes, c.req.Tag)
	}
}

// DeliverToGuest is the RX path: DMA into guest memory, then the
// completion interrupt through the orchestrator's injection path (which,
// in the core-gapped prototype, still involves the host — the Fig. 8
// "additional interrupt latency" limitation).
func (d *VFDevice) DeliverToGuest(vcpu, bytes, tag int) {
	v := d.vmm
	v.eng.Count(cVFRX)
	v.eng.After(v.costs.VFDMALatency, "vf-dma", v.bind(vfDMADone, devCall{vcpu: vcpu, bytes: bytes, tag: tag}))
}

func vfDMADone(c devCall) {
	c.v.Inject(c.vcpu, guest.Event{Kind: guest.EvPacket, Dev: guest.SRIOVNet, Bytes: c.bytes, Tag: c.tag})
}

// TxBytes reports transmitted bytes.
func (d *VFDevice) TxBytes() uint64 { return d.txBytes }
