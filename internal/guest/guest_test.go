package guest

import (
	"testing"

	"coregap/internal/sim"
)

func TestCoreMarkProducesAllWork(t *testing.T) {
	c := NewCoreMark(4, 10*sim.Millisecond)
	var total sim.Duration
	for v := 0; v < 4; v++ {
		for {
			a := c.Next(v)
			if a.Kind == ActHalt {
				break
			}
			if a.Kind != ActCompute {
				t.Fatalf("unexpected action %v", a.Kind)
			}
			total += a.Work
		}
	}
	if total != 40*sim.Millisecond {
		t.Fatalf("total work = %v, want 40ms", total)
	}
	if !c.Done() {
		t.Fatal("not done after drain")
	}
	if c.TotalWork() != 40*sim.Millisecond {
		t.Fatal("TotalWork wrong")
	}
}

func TestCoreMarkScore(t *testing.T) {
	c := NewCoreMark(2, 10*sim.Millisecond)
	for v := 0; v < 2; v++ {
		for c.Next(v).Kind != ActHalt {
		}
	}
	// 20ms of work over 20ms elapsed = score 1.0 (work-seconds/second).
	if got := c.Score(20 * sim.Millisecond); got < 0.99 || got > 1.01 {
		t.Fatalf("score = %v, want ~1", got)
	}
	if c.Score(0) != 0 {
		t.Fatal("score at zero elapsed")
	}
}

func TestCoreMarkIgnoresEvents(t *testing.T) {
	c := NewCoreMark(1, sim.Millisecond)
	c.Deliver(0, Event{Kind: EvTimer})
	if a := c.Next(0); a.Kind != ActCompute {
		t.Fatal("event perturbed coremark")
	}
}

func TestNetPIPEEchoCycle(t *testing.T) {
	n := NewNetPIPE(SRIOVNet, 4096, 2)

	// Idle with no data: waits.
	if a := n.Next(0); a.Kind != ActWFI {
		t.Fatalf("expected WFI, got %v", a.Kind)
	}
	// Partial message: still waits.
	n.Deliver(0, Event{Kind: EvPacket, Bytes: 1500})
	if a := n.Next(0); a.Kind != ActWFI {
		t.Fatal("woke on partial message")
	}
	n.Deliver(0, Event{Kind: EvPacket, Bytes: 1500})
	n.Deliver(0, Event{Kind: EvPacket, Bytes: 1096})
	a := n.Next(0)
	if a.Kind != ActCompute || a.Work <= 0 {
		t.Fatalf("expected compute, got %+v", a)
	}
	a = n.Next(0)
	if a.Kind != ActIO || a.Req.Bytes != 4096 || !a.Req.Write || a.Req.Dev != SRIOVNet {
		t.Fatalf("expected tx, got %+v", a)
	}
	if n.Completed() != 1 {
		t.Fatalf("completed = %d", n.Completed())
	}

	// Second round, then halt.
	n.Deliver(0, Event{Kind: EvPacket, Bytes: 4096})
	n.Next(0) // compute
	n.Next(0) // tx
	if a := n.Next(0); a.Kind != ActHalt {
		t.Fatalf("expected halt, got %v", a.Kind)
	}
}

func TestNetPIPEComputeScalesWithSize(t *testing.T) {
	small := NewNetPIPE(VirtioNet, 64, 1)
	big := NewNetPIPE(VirtioNet, 1<<20, 1)
	small.Deliver(0, Event{Kind: EvPacket, Bytes: 64})
	big.Deliver(0, Event{Kind: EvPacket, Bytes: 1 << 20})
	ws := small.Next(0).Work
	wb := big.Next(0).Work
	if wb <= ws {
		t.Fatalf("big message compute %v <= small %v", wb, ws)
	}
}

func TestIOzoneAlternatesComputeAndSyncIO(t *testing.T) {
	z := NewIOzone(64<<10, true, 1<<20) // 16 records
	records := 0
	for {
		a := z.Next(0)
		if a.Kind == ActHalt {
			break
		}
		if a.Kind == ActCompute {
			if a.Work <= 0 {
				t.Fatal("zero compute")
			}
			continue
		}
		if a.Kind != ActIO || !a.Req.Sync || a.Req.Dev != VirtioBlk || !a.Req.Write {
			t.Fatalf("unexpected action %+v", a)
		}
		records++
	}
	if records != 16 {
		t.Fatalf("records = %d, want 16", records)
	}
	if z.Moved() != 1<<20 {
		t.Fatalf("moved = %d", z.Moved())
	}
	// 1 MiB over 1 second = 1 MiB/s.
	if got := z.Throughput(sim.Second); got < 0.99 || got > 1.01 {
		t.Fatalf("throughput = %v", got)
	}
}

func TestRedisServiceLoop(t *testing.T) {
	r := NewRedis(SRIOVNet)
	if a := r.Next(0); a.Kind != ActWFI {
		t.Fatal("idle redis must wait")
	}
	r.Deliver(0, Event{Kind: EvPacket, Bytes: 512, Tag: EncodeOpTag(OpGet, 3)})
	a := r.Next(0)
	if a.Kind != ActCompute {
		t.Fatalf("expected service compute, got %v", a.Kind)
	}
	a = r.Next(0)
	if a.Kind != ActIO || a.Req.Bytes != OpGet.ReplyBytes() {
		t.Fatalf("expected reply, got %+v", a)
	}
	op, client := DecodeOpTag(a.Req.Tag)
	if op != OpGet || client != 3 {
		t.Fatalf("tag round trip: %v %d", op, client)
	}
	if r.Served() != 1 {
		t.Fatalf("served = %d", r.Served())
	}
}

func TestRedisFIFOBacklog(t *testing.T) {
	r := NewRedis(SRIOVNet)
	for i := 0; i < 3; i++ {
		r.Deliver(0, Event{Kind: EvPacket, Tag: EncodeOpTag(OpSet, i)})
	}
	if r.Backlog() != 3 {
		t.Fatalf("backlog = %d", r.Backlog())
	}
	for i := 0; i < 3; i++ {
		r.Next(0) // service
		a := r.Next(0)
		_, client := DecodeOpTag(a.Req.Tag)
		if client != i {
			t.Fatalf("served out of order: got client %d at round %d", client, i)
		}
	}
	if r.Backlog() != 0 {
		t.Fatal("backlog not drained")
	}
}

func TestRedisOpWeights(t *testing.T) {
	if OpLRange100.ServiceTime() <= OpGet.ServiceTime() {
		t.Fatal("LRANGE must cost more than GET")
	}
	if OpLRange100.ReplyBytes() <= OpGet.ReplyBytes() {
		t.Fatal("LRANGE reply must exceed GET reply")
	}
	if OpSet.String() != "SET" || OpGet.String() != "GET" || OpLRange100.String() != "LRANGE 100" {
		t.Fatal("op names")
	}
}

func TestKBuildCompletesAllJobs(t *testing.T) {
	src := sim.NewSource(1)
	k := NewKBuild(10, 2, 100*sim.Millisecond, src)
	halted := 0
	active := []int{0, 1}
	for halted < 2 {
		for _, v := range active {
			if k.stage[v] == 3 {
				continue
			}
			a := k.Next(v)
			if a.Kind == ActHalt {
				k.stage[v] = 3
				halted++
			}
		}
	}
	if k.Finished() != 10 {
		t.Fatalf("finished = %d, want 10", k.Finished())
	}
	if k.Jobs() != 10 {
		t.Fatal("Jobs accessor")
	}
}

func TestKBuildJobShape(t *testing.T) {
	src := sim.NewSource(2)
	k := NewKBuild(1, 1, 50*sim.Millisecond, src)
	a := k.Next(0)
	if a.Kind != ActIO || a.Req.Write || !a.Req.Sync {
		t.Fatalf("first action should be sync read, got %+v", a)
	}
	a = k.Next(0)
	if a.Kind != ActCompute || a.Work <= 0 {
		t.Fatalf("second action should be compile, got %+v", a)
	}
	a = k.Next(0)
	if a.Kind != ActIO || !a.Req.Write {
		t.Fatalf("third action should be object write, got %+v", a)
	}
	if a := k.Next(0); a.Kind != ActHalt {
		t.Fatalf("should halt after last job, got %v", a.Kind)
	}
}

func TestIPIBenchRoundTrip(t *testing.T) {
	b := NewIPIBench(3)

	// vCPU 1 starts waiting.
	if a := b.Next(1); a.Kind != ActWFI {
		t.Fatalf("vcpu1 first action %v", a.Kind)
	}
	rounds := 0
	for i := 0; i < 20 && rounds < 3; i++ {
		a0 := b.Next(0)
		switch a0.Kind {
		case ActVIPI:
			if a0.Target != 1 {
				t.Fatal("wrong target")
			}
			b.Deliver(1, Event{Kind: EvVIPI, From: 0})
			// vCPU 1 acks then replies.
			if a := b.Next(1); a.Kind != ActCompute {
				t.Fatalf("vcpu1 ack = %v", a.Kind)
			}
			if a := b.Next(1); a.Kind != ActVIPI || a.Target != 0 {
				t.Fatalf("vcpu1 reply wrong")
			}
			b.Deliver(0, Event{Kind: EvVIPI, From: 1})
		case ActCompute:
			rounds = b.Rounds()
		case ActWFI:
			// keep going
		case ActHalt:
			rounds = b.Rounds()
			i = 20
		}
	}
	if b.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", b.Rounds())
	}
}

func TestStringers(t *testing.T) {
	if VirtioNet.String() != "virtio-net" || VirtioBlk.String() != "virtio-blk" || SRIOVNet.String() != "sriov-net" {
		t.Fatal("device strings")
	}
	for k, want := range map[ActionKind]string{
		ActCompute: "compute", ActIO: "io", ActVIPI: "vipi", ActWFI: "wfi", ActHalt: "halt",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
}

// TestEncodeOpTagBounds: the tag packs the client id into 24 bits; an id
// outside [0, 2^24) would silently alias another client's in-flight
// request, so encoding must refuse it loudly.
func TestEncodeOpTagBounds(t *testing.T) {
	mustPanic := func(id int) {
		defer func() {
			if recover() == nil {
				t.Fatalf("EncodeOpTag(%d) did not panic", id)
			}
		}()
		EncodeOpTag(OpGet, id)
	}
	mustPanic(-1)
	mustPanic(1 << 24)
	mustPanic(1<<24 + 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EncodeOpTag of an unknown op did not panic")
			}
		}()
		EncodeOpTag(OpLRange100+1, 0)
	}()
	if tag := EncodeOpTag(OpLRange100, 1<<24-1); tag >= 3<<24 {
		t.Fatalf("largest tag %#x not below 3·2^24", tag)
	}

	for _, id := range []int{0, 1, 1<<24 - 1} {
		op, got := DecodeOpTag(EncodeOpTag(OpSet, id))
		if op != OpSet || got != id {
			t.Fatalf("round trip id %d: got %v %d", id, op, got)
		}
	}
}
