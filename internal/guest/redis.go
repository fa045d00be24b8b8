package guest

import (
	"fmt"

	"coregap/internal/sim"
)

// RedisOp is one of the redis-benchmark operation types of Table 5.
type RedisOp int

// Operations.
const (
	OpSet RedisOp = iota
	OpGet
	OpLRange100
)

func (o RedisOp) String() string {
	switch o {
	case OpSet:
		return "SET"
	case OpGet:
		return "GET"
	default:
		return "LRANGE 100"
	}
}

// ServiceTime reports the guest CPU time to execute the operation on
// 512-byte objects. Values reflect the relative weights visible in
// Table 5 (SET/GET ~ short; LRANGE 100 walks 100 entries and serialises
// a ~51 KiB reply, roughly 4-5× the base cost).
func (o RedisOp) ServiceTime() sim.Duration {
	switch o {
	case OpSet:
		return 15 * sim.Microsecond
	case OpGet:
		return 16 * sim.Microsecond
	default:
		return 65 * sim.Microsecond
	}
}

// ReplyBytes reports the approximate reply size.
func (o RedisOp) ReplyBytes() int {
	switch o {
	case OpSet:
		return 64 // +OK
	case OpGet:
		return 512
	default:
		return 100 * 512
	}
}

// Redis models a single-threaded Redis 7 server (Table 5): an event loop
// that drains received requests in arrival order, executing each
// operation's service time and transmitting its reply. Requests arrive
// as EvPacket events tagged with the operation; the external
// redis-benchmark client model lives with the NIC.
type Redis struct {
	dev DeviceClass
	// pending[head:] are the tags of the received, unserved requests
	// (a request is its tag: EncodeOpTag keeps them below 3·2^24).
	// Serving advances head; the array is rewound once drained (or
	// compacted when full), so a steady request stream reuses one
	// backing array.
	pending []int32
	head    int
	served  uint64
	// replying holds the op whose reply must be sent after service;
	// pendingTagForReply carries the request tag into the reply so the
	// client model can match response to request.
	replying           RedisOp
	pendingTagForReply int
	inService          bool
	epollFloor         sim.Duration
}

// NewRedis builds the server; dev is the NIC it serves on (the paper uses
// SR-IOV for this experiment).
func NewRedis(dev DeviceClass) *Redis {
	return &Redis{dev: dev, epollFloor: 2 * sim.Microsecond}
}

// Next implements Program. Redis is single-threaded: only vCPU 0 serves;
// the remaining vCPUs of the VM idle, as on the real system.
func (r *Redis) Next(vcpu int) Action {
	if vcpu != 0 {
		return WFI()
	}
	if r.inService {
		// Service finished: transmit the reply.
		r.inService = false
		r.served++
		return Action{Kind: ActIO, Req: IORequest{
			Dev: r.dev, Bytes: r.replying.ReplyBytes(), Write: true,
			Tag: r.pendingTagForReply,
		}}
	}
	if r.Backlog() == 0 {
		return WFI()
	}
	tag := int(r.pending[r.head])
	r.head++
	if r.head == len(r.pending) {
		r.pending = r.pending[:0]
		r.head = 0
	}
	r.replying = RedisOp(tag >> 24)
	r.pendingTagForReply = tag
	r.inService = true
	// epoll wakeup + parse + execute.
	return ComputeFor(r.epollFloor + r.replying.ServiceTime())
}

// Deliver implements Program.
func (r *Redis) Deliver(vcpu int, ev Event) {
	if ev.Kind == EvPacket {
		if r.head > 0 && len(r.pending) == cap(r.pending) {
			r.pending = r.pending[:copy(r.pending, r.pending[r.head:])]
			r.head = 0
		}
		r.pending = append(r.pending, int32(ev.Tag))
	}
}

// Served reports completed requests.
func (r *Redis) Served() uint64 { return r.served }

// Backlog reports queued, unserved requests.
func (r *Redis) Backlog() int { return len(r.pending) - r.head }

// EncodeOpTag packs an operation and a client id into an event tag. The
// client id occupies the low 24 bits; an out-of-range id would silently
// corrupt the operation on decode (the overflow bits OR into the op
// field), so it panics instead — open-loop runs model tens of thousands
// of connections and must fail loudly, not serve the wrong op. An
// unknown op panics too, so every tag is below 3·2^24 and fits the
// server's int32 request queue.
func EncodeOpTag(op RedisOp, clientID int) int {
	if clientID < 0 || clientID >= 1<<24 {
		panic(fmt.Sprintf("guest: EncodeOpTag client id %d out of range [0, 2^24)", clientID))
	}
	if op < OpSet || op > OpLRange100 {
		panic(fmt.Sprintf("guest: EncodeOpTag unknown op %d", int(op)))
	}
	return int(op)<<24 | clientID
}

// DecodeOpTag unpacks an event tag.
func DecodeOpTag(tag int) (RedisOp, int) { return RedisOp(tag >> 24), tag & 0xffffff }
