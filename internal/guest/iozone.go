package guest

import (
	"coregap/internal/sim"
)

// IOzone models the IOzone sync read/write benchmark with O_DIRECT
// (§5.3, Fig. 9): a single thread issues synchronous block requests of a
// fixed record size back to back. With the guest page cache bypassed,
// every record is a doorbell, a host-side emulation, and a completion
// interrupt — the workload the paper uses to show core-gapping's
// worst case.
type IOzone struct {
	record    int // bytes per request
	write     bool
	total     int64 // bytes to move
	moved     int64
	nsPerByte float64 // guest-side buffer handling, ns per byte
	ioNext    bool    // alternates compute / synchronous request
}

// NewIOzone builds a sequential sync reader/writer moving total bytes in
// record-sized requests.
func NewIOzone(record int, write bool, total int64) *IOzone {
	return &IOzone{
		record:    record,
		write:     write,
		total:     total,
		nsPerByte: 0.2, // memcpy at ~5 GB/s
	}
}

// Next implements Program. Each round is: syscall + buffer-handling
// compute, then a synchronous block request that blocks until completion.
func (z *IOzone) Next(vcpu int) Action {
	if z.moved >= z.total {
		return Halt()
	}
	if !z.ioNext {
		z.ioNext = true
		return ComputeFor(z.GuestWorkPerRecord())
	}
	z.ioNext = false
	z.moved += int64(z.record)
	return Action{Kind: ActIO, Req: IORequest{
		Dev: VirtioBlk, Bytes: z.record, Write: z.write, Sync: true,
	}}
}

// Deliver implements Program.
func (z *IOzone) Deliver(int, Event) {}

// GuestWorkPerRecord reports the guest-side compute the environment
// should charge around each request (buffer prep + copyout).
func (z *IOzone) GuestWorkPerRecord() sim.Duration {
	w := sim.Duration(z.nsPerByte * float64(z.record))
	if w < 500*sim.Nanosecond {
		w = 500 * sim.Nanosecond // syscall + block-layer floor
	}
	return w
}

// Moved reports bytes transferred so far.
func (z *IOzone) Moved() int64 { return z.moved }

// Throughput reports MiB/s given the elapsed time.
func (z *IOzone) Throughput(elapsed sim.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(z.moved) / (1 << 20) / elapsed.Seconds()
}
