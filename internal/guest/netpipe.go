package guest

import (
	"coregap/internal/sim"
)

// NetPIPE models the NetPIPE ping-pong benchmark (§5.3, Fig. 8): an
// external client sends a message of a given size; the guest receives it,
// touches every byte, and echoes it back. Latency is the round-trip time
// seen by the client; throughput is message bytes over round-trip time.
//
// The guest side is a single-vCPU echo server: wait for the message
// (delivered as one or more EvPacket events by the NIC model), run the
// per-byte compute, transmit the reply, wait again.
type NetPIPE struct {
	dev       DeviceClass
	msgBytes  int
	perByte   sim.Duration // guest compute per payload byte (touch + copy)
	rounds    int
	completed int

	rxPending int // bytes received of the current message
	state     npState
}

type npState int

const (
	npWaiting npState = iota
	npProcessing
	npDone
)

// NewNetPIPE builds the echo server for the given device and message
// size, terminating after rounds echoes.
func NewNetPIPE(dev DeviceClass, msgBytes, rounds int) *NetPIPE {
	return &NetPIPE{
		dev:      dev,
		msgBytes: msgBytes,
		perByte:  sim.Nanosecond, // ≈1 ns/B: touch+copy at ~1 GB/s per core
		rounds:   rounds,
	}
}

// Next implements Program. The echo server runs on vCPU 0; any other
// vCPUs of the VM idle.
func (n *NetPIPE) Next(vcpu int) Action {
	if vcpu != 0 {
		return WFI()
	}
	switch n.state {
	case npWaiting:
		if n.rxPending >= n.msgBytes {
			n.rxPending -= n.msgBytes
			n.state = npProcessing
			w := sim.Duration(float64(n.perByte) * float64(n.msgBytes))
			if w < 200*sim.Nanosecond {
				w = 200 * sim.Nanosecond // syscall + stack floor
			}
			return ComputeFor(w)
		}
		return WFI()
	case npProcessing:
		n.state = npWaiting
		n.completed++
		if n.completed >= n.rounds {
			n.state = npDone
		}
		return Action{Kind: ActIO, Req: IORequest{Dev: n.dev, Bytes: n.msgBytes, Write: true}}
	default:
		return Halt()
	}
}

// Deliver implements Program.
func (n *NetPIPE) Deliver(vcpu int, ev Event) {
	if ev.Kind == EvPacket {
		n.rxPending += ev.Bytes
	}
}

// Completed reports finished echo rounds.
func (n *NetPIPE) Completed() int { return n.completed }
