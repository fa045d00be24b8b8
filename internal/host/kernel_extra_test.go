package host

import (
	"fmt"
	"slices"
	"testing"

	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

func TestKernelAccessors(t *testing.T) {
	eng, m, k := newKernel(t, 2)
	if k.Engine() != eng || k.Machine() != m {
		t.Fatal("accessors")
	}
	th := k.NewThread("acc", ClassFIFO, 1)
	if th.Name() != "acc" || th.Class() != ClassFIFO || th.Pin() != 1 || th.QueueLen() != 0 {
		t.Fatal("thread accessors")
	}
	th.SetDomain(uarch.Guest(0), 0.5)
	k.Submit(th, "j", 100, nil) // dispatched immediately (becomes current)
	k.Submit(th, "j2", 100, nil)
	if th.QueueLen() != 1 {
		t.Fatalf("queue len = %d after second submit", th.QueueLen())
	}
	eng.Run()
	// Guest-domain thread execution polluted the core with its domain.
	if m.Core(1).Uarch.Warmth(uarch.Guest(0)) == 0 {
		t.Fatal("SetDomain not honoured by dispatch")
	}
}

func TestIsOffline(t *testing.T) {
	_, _, k := newKernel(t, 2)
	if k.IsOffline(0) || k.IsOffline(99) {
		t.Fatal("fresh cores reported offline")
	}
	if err := k.OfflineCore(1, nil); err != nil {
		t.Fatal(err)
	}
	if !k.IsOffline(1) {
		t.Fatal("offlined core not reported")
	}
}

func TestKillRunnableAndBlocked(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	// Two queued threads on one core: the second is Runnable when killed.
	a := k.NewThread("a", ClassNormal, 0)
	b := k.NewThread("b", ClassNormal, 0)
	ranB := false
	k.Submit(a, "long", sim.Millisecond, nil)
	k.Submit(b, "j", 100, func() { ranB = true })
	eng.RunFor(10) // a running, b queued
	k.Kill(b)      // kill Runnable
	eng.Run()
	if ranB {
		t.Fatal("killed runnable thread ran")
	}
	// Kill a blocked (never-started) thread.
	c := k.NewThread("c", ClassNormal, 0)
	k.Kill(c)
	if c.State() != Dead {
		t.Fatal("blocked thread not dead")
	}
	// Kill FIFO thread queued behind another FIFO.
	f1 := k.NewThread("f1", ClassFIFO, 0)
	f2 := k.NewThread("f2", ClassFIFO, 0)
	ranF2 := false
	k.Submit(f1, "long", sim.Millisecond, nil)
	k.Submit(f2, "j", 100, func() { ranF2 = true })
	eng.RunFor(10)
	k.Kill(f2)
	eng.Run()
	if ranF2 {
		t.Fatal("killed fifo thread ran")
	}
}

func TestIRQToOfflinedCoreReroutes(t *testing.T) {
	eng, m, k := newKernel(t, 2)
	var got []hw.CoreID
	k.RegisterIRQ(hw.IPICall, func(c hw.CoreID) { got = append(got, c) })
	if err := k.OfflineCore(1, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Hardware still delivers to core 1's handler, which is now the
	// kernel's stale hook: the kernel reroutes to an online core.
	k.handleIRQ(1, 0, hw.IPICall)
	eng.Run()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("rerouted to %v, want core 0", got)
	}
	_ = m
}

func TestFIFOPreemptRequeuesAtFront(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	norm := k.NewThread("n", ClassNormal, 0)
	var order []string
	k.Submit(norm, "n1", 500*sim.Microsecond, func() { order = append(order, "n1") })
	k.Submit(norm, "n2", 500*sim.Microsecond, func() { order = append(order, "n2") })
	rt := k.NewThread("rt", ClassFIFO, 0)
	eng.After(100*sim.Microsecond, "wake", func() {
		k.Submit(rt, "rt", 100*sim.Microsecond, func() { order = append(order, "rt") })
	})
	eng.Run()
	// The preempted normal thread resumes n1 before n2.
	if len(order) != 3 || order[0] != "rt" || order[1] != "n1" || order[2] != "n2" {
		t.Fatalf("order = %v", order)
	}
}

// TestZeroAllocKernelCycle gates the scheduler's per-event path on warm
// threads: Submit → dispatch → slice completion, a quantum expiry, a
// FIFO wake that preempts a normal thread and requeues it at the front,
// a FIFO thread continuing at the queue head, an IPI stealing a core
// from an idle-polling thread, and a rotation of two idle pollers broken
// in turn by a poll becoming ready, a Submit and a StealCPU all
// allocate nothing once the inboxes and run queues have reached their
// steady-state arrays.
func TestZeroAllocKernelCycle(t *testing.T) {
	eng, m, k := newKernel(t, 3)
	k.SetQuantum(50 * sim.Microsecond)
	worker := k.NewThread("worker", ClassNormal, 0)
	rt := k.NewThread("rt", ClassFIFO, 0)
	poller := k.NewThread("poller", ClassNormal, 1)
	pa := k.NewThread("pa", ClassNormal, 2)
	pb := k.NewThread("pb", ClassNormal, 2)
	var jobs, polls, irqs, found int
	job := func() { jobs++ }
	never := func() sim.Time { return sim.Forever }
	k.SetIdlePoll(poller, &Poll{Slice: 10 * sim.Microsecond, Action: func() { polls++ }, ReadyAt: func() sim.Time { return 0 }})
	readyA := sim.Forever
	k.SetIdlePoll(pa, &Poll{
		Slice: 5 * sim.Microsecond,
		Action: func() {
			if eng.Now() >= readyA {
				found++
				readyA = sim.Forever
			}
		},
		ReadyAt: func() sim.Time { return readyA },
	})
	k.SetIdlePoll(pb, &Poll{Slice: 5 * sim.Microsecond, ReadyAt: never})
	for _, p := range []*Thread{poller, pa, pb} {
		k.Submit(p, "seed", 1, nil)
	}
	k.RegisterIRQ(hw.IPIGuestExit, func(hw.CoreID) { irqs++ })
	cycle := func() {
		k.Submit(worker, "job", 80*sim.Microsecond, job)
		k.Submit(worker, "job", 80*sim.Microsecond, job)
		readyA = eng.Now().Add(3 * sim.Microsecond)
		k.PollReady(pa)
		eng.RunFor(20 * sim.Microsecond)
		k.Submit(rt, "rt", 5*sim.Microsecond, job)
		k.Submit(rt, "rt", 5*sim.Microsecond, job)
		k.Submit(pb, "job", 5*sim.Microsecond, job)
		m.SendIPI(0, 1, hw.IPIGuestExit)
		eng.RunFor(100 * sim.Microsecond)
		k.StealCPU(2, sim.Microsecond, nil)
		eng.RunFor(200 * sim.Microsecond)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("kernel cycle: %.2f allocs/op in steady state, want 0", avg)
	}
	if jobs != 5*202 || irqs != 202 || polls == 0 || found != 202 {
		t.Fatalf("jobs = %d, irqs = %d, polls = %d, found = %d; want 1010, 202, > 0, 202", jobs, irqs, polls, found)
	}
	if worker.ContextSwitches() < 3*202 {
		t.Fatalf("worker switched in %d times; want the FIFO preemption and quantum requeues", worker.ContextSwitches())
	}
	// Core 2 spends most of each cycle rotating: its poll slices far
	// outnumber the events the whole kernel queued.
	if slices := pa.ContextSwitches() + pb.ContextSwitches(); slices <= eng.EventsFired() {
		t.Fatalf("%d poll slices on core 2 against %d events fired; want the rotation to queue none", slices, eng.EventsFired())
	}
}

// TestRunQueueMatchesSlice drives the ring and a plain slice through
// the same random pushes at either end, pops and removals, across
// several growths and wraps of the ring.
func TestRunQueueMatchesSlice(t *testing.T) {
	src := sim.NewSource(3)
	threads := make([]*Thread, 40)
	for i := range threads {
		threads[i] = &Thread{name: fmt.Sprint(i)}
	}
	var q runQueue
	var ref []*Thread
	for op := 0; op < 5000; op++ {
		u := threads[src.Intn(len(threads))]
		switch k := src.Intn(10); {
		case k < 3 && len(ref) < 30:
			q.pushBack(u)
			ref = append(ref, u)
		case k < 5 && len(ref) < 30:
			q.pushFront(u)
			ref = append([]*Thread{u}, ref...)
		case k < 9 && len(ref) > 0:
			if got := q.popFront(); got != ref[0] {
				t.Fatalf("op %d: popped %s, want %s", op, got.name, ref[0].name)
			}
			ref = ref[1:]
		case k == 9:
			q.remove(u)
			ref = slices.DeleteFunc(ref, func(x *Thread) bool { return x == u })
		}
		if q.n != len(ref) {
			t.Fatalf("op %d: %d queued, want %d", op, q.n, len(ref))
		}
		for i, x := range ref {
			if q.at(i) != x {
				t.Fatalf("op %d: thread %d is %s, want %s", op, i, q.at(i).name, x.name)
			}
		}
	}
	if got := q.drain(nil); !slices.Equal(got, ref) || q.n != 0 {
		t.Fatalf("drain gave %d threads, %d left", len(got), q.n)
	}
}
