package host

import (
	"testing"

	"coregap/internal/hw"
	"coregap/internal/sim"
)

func newKernel(t *testing.T, cores int) (*sim.Engine, *hw.Machine, *Kernel) {
	t.Helper()
	eng := sim.NewEngine(7)
	m := hw.NewMachine(eng, hw.DefaultConfig(cores))
	return eng, m, NewKernel(m)
}

func TestSubmitRunsWork(t *testing.T) {
	eng, _, k := newKernel(t, 2)
	th := k.NewThread("worker", ClassNormal, hw.NoCore)
	done := sim.Time(-1)
	k.Submit(th, "job", 1000, func() { done = eng.Now() })
	eng.Run()
	if done != 1000 {
		t.Fatalf("job done at %v, want 1000", done)
	}
	if th.State() != Blocked {
		t.Fatalf("thread state %v after drain", th.State())
	}
	if th.CPUTime() != 1000 {
		t.Fatalf("cpu time %v", th.CPUTime())
	}
}

func TestWorkItemsFIFOOrder(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	th := k.NewThread("w", ClassNormal, 0)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Submit(th, "j", 100, func() { order = append(order, i) })
	}
	eng.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTwoThreadsShareCoreRoundRobin(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	k.SetQuantum(1 * sim.Millisecond)
	a := k.NewThread("a", ClassNormal, 0)
	b := k.NewThread("b", ClassNormal, 0)
	var aDone, bDone sim.Time
	k.Submit(a, "big", 3*sim.Millisecond, func() { aDone = eng.Now() })
	k.Submit(b, "big", 3*sim.Millisecond, func() { bDone = eng.Now() })
	eng.Run()
	// Interleaved: both finish around 5-6ms, not 3ms then 6ms.
	if aDone < sim.Time(4*sim.Millisecond) {
		t.Fatalf("a finished at %v: no time sharing", aDone)
	}
	if bDone != sim.Time(6*sim.Millisecond) {
		t.Fatalf("b finished at %v, want 6ms", bDone)
	}
	if a.ContextSwitches() < 2 {
		t.Fatalf("a switches = %d, want >= 2", a.ContextSwitches())
	}
}

func TestUnpinnedThreadsBalanceAcrossCores(t *testing.T) {
	eng, _, k := newKernel(t, 2)
	a := k.NewThread("a", ClassNormal, hw.NoCore)
	b := k.NewThread("b", ClassNormal, hw.NoCore)
	var aDone, bDone sim.Time
	k.Submit(a, "j", sim.Millisecond, func() { aDone = eng.Now() })
	k.Submit(b, "j", sim.Millisecond, func() { bDone = eng.Now() })
	eng.Run()
	if aDone != sim.Time(sim.Millisecond) || bDone != sim.Time(sim.Millisecond) {
		t.Fatalf("no parallelism: a=%v b=%v", aDone, bDone)
	}
	if a.Core() == b.Core() {
		t.Fatal("both threads placed on one core")
	}
}

func TestFIFOPreemptsNormal(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	norm := k.NewThread("norm", ClassNormal, 0)
	rt := k.NewThread("rt", ClassFIFO, 0)
	var rtDone, normDone sim.Time
	k.Submit(norm, "long", 10*sim.Millisecond, func() { normDone = eng.Now() })
	// Wake the FIFO thread mid-run.
	eng.After(2*sim.Millisecond, "wake-rt", func() {
		k.Submit(rt, "urgent", sim.Millisecond, func() { rtDone = eng.Now() })
	})
	eng.Run()
	if rtDone != sim.Time(3*sim.Millisecond) {
		t.Fatalf("rt done at %v, want 3ms (immediate preemption)", rtDone)
	}
	if normDone != sim.Time(11*sim.Millisecond) {
		t.Fatalf("norm done at %v, want 11ms", normDone)
	}
}

func TestFIFORunsToCompletion(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	k.SetQuantum(sim.Millisecond)
	rt := k.NewThread("rt", ClassFIFO, 0)
	norm := k.NewThread("n", ClassNormal, 0)
	var order []string
	k.Submit(rt, "a", 3*sim.Millisecond, func() { order = append(order, "rt-a") })
	k.Submit(rt, "b", 3*sim.Millisecond, func() { order = append(order, "rt-b") })
	k.Submit(norm, "n", sim.Millisecond, func() { order = append(order, "norm") })
	eng.Run()
	if len(order) != 3 || order[0] != "rt-a" || order[1] != "rt-b" || order[2] != "norm" {
		t.Fatalf("order = %v: FIFO did not run to completion", order)
	}
}

func TestStealCPUDelaysThread(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	th := k.NewThread("w", ClassNormal, 0)
	var done sim.Time
	k.Submit(th, "j", 10_000, func() { done = eng.Now() })
	irqRan := false
	eng.After(5_000, "irq", func() {
		k.StealCPU(0, 1_000, func() { irqRan = true })
	})
	eng.Run()
	if !irqRan {
		t.Fatal("irq handler never ran")
	}
	if done != 11_000 {
		t.Fatalf("thread done at %v, want 11000 (stolen 1000)", done)
	}
	if th.CPUTime() != 10_000 {
		t.Fatalf("thread charged %v, want 10000", th.CPUTime())
	}
}

// stealDuringShortSlice runs a 0.8 ms item under a 1 ms quantum, with a
// 1 ms item queued behind it on the same core, and steals the core at
// 0.5 ms for cost. The quantum outlasts the slice it was armed for, so
// only the steal can bring its expiry within what the core runs. It
// reports when each item completed.
func stealDuringShortSlice(t *testing.T, cost sim.Duration) (a *Thread, aDone, bDone sim.Time) {
	eng, _, k := newKernel(t, 1)
	k.SetQuantum(sim.Millisecond)
	a = k.NewThread("a", ClassNormal, 0)
	b := k.NewThread("b", ClassNormal, 0)
	k.Submit(a, "j", 800*sim.Microsecond, func() { aDone = eng.Now() })
	k.Submit(b, "j", sim.Millisecond, func() { bDone = eng.Now() })
	eng.After(500*sim.Microsecond, "irq", func() { k.StealCPU(0, cost, nil) })
	eng.Run()
	return a, aDone, bDone
}

// TestQuantumExpiringInStealIsConsumed: an expiry that falls inside an
// IRQ steal fires as a no-op and uses the quantum up, so the resumed
// slice runs to completion without a preemption.
func TestQuantumExpiringInStealIsConsumed(t *testing.T) {
	a, aDone, bDone := stealDuringShortSlice(t, sim.Millisecond)
	if aDone != sim.Time(1800*sim.Microsecond) || bDone != sim.Time(2800*sim.Microsecond) {
		t.Fatalf("a done at %v, b at %v; want 1.80ms, 2.80ms", aDone, bDone)
	}
	if a.ContextSwitches() != 1 {
		t.Fatalf("a switched in %d times, want 1 (never preempted)", a.ContextSwitches())
	}
}

// TestStealStretchedSliceMeetsDeadline: a steal that ends before the
// quantum but pushes the resumed slice past it gets the slice preempted
// exactly at the deadline, and the queued thread runs from there.
func TestStealStretchedSliceMeetsDeadline(t *testing.T) {
	a, aDone, bDone := stealDuringShortSlice(t, 400*sim.Microsecond)
	if bDone != sim.Time(2*sim.Millisecond) || aDone != sim.Time(2200*sim.Microsecond) {
		t.Fatalf("b done at %v, a at %v; want 2ms (b ran from the 1ms deadline), 2.20ms", bDone, aDone)
	}
	if a.ContextSwitches() != 2 {
		t.Fatalf("a switched in %d times, want 2 (preempted once)", a.ContextSwitches())
	}
}

func TestStealCPUOnIdleCore(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	ran := false
	k.StealCPU(0, 500, func() { ran = true })
	eng.Run()
	if !ran {
		t.Fatal("steal on idle core did not run")
	}
}

func TestIRQDispatchToHandler(t *testing.T) {
	eng, m, k := newKernel(t, 2)
	var got []hw.CoreID
	k.RegisterIRQ(hw.IPIGuestExit, func(core hw.CoreID) { got = append(got, core) })
	m.SendIPI(1, 0, hw.IPIGuestExit)
	m.SendIPI(0, 1, hw.IPIGuestExit)
	m.SendIPI(0, 1, hw.IRQ(3)) // unregistered: dropped
	eng.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("handlers ran on %v", got)
	}
	if n := eng.CounterValue(cIRQs); n != 3 {
		t.Fatalf("irq count = %d", n)
	}
}

func TestIdlePollBusyWait(t *testing.T) {
	eng, m, k := newKernel(t, 1)
	th := k.NewThread("poller", ClassNormal, 0)
	polls := 0
	k.SetIdlePoll(th, func() (sim.Duration, func()) {
		return 10 * sim.Microsecond, func() { polls++ }
	})
	k.Submit(th, "seed", 1, nil) // wake it once
	eng.RunUntil(sim.Time(1 * sim.Millisecond))
	if polls < 90 {
		t.Fatalf("polls = %d, want ~100 over 1ms", polls)
	}
	// The polling thread monopolizes the core.
	if u := m.Core(0).Exec.Utilization(); u < 0.99 {
		t.Fatalf("utilization = %v, want ~1", u)
	}
}

func TestIdlePollCompetesWithWork(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	k.SetQuantum(100 * sim.Microsecond)
	poller := k.NewThread("poller", ClassNormal, 0)
	k.SetIdlePoll(poller, func() (sim.Duration, func()) {
		return 100 * sim.Microsecond, nil
	})
	k.Submit(poller, "seed", 1, nil)
	worker := k.NewThread("worker", ClassNormal, 0)
	var done sim.Time
	k.Submit(worker, "j", sim.Millisecond, func() { done = eng.Now() })
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	// The worker needed ~2x wall time because the poller burned ~half
	// the core (this is the Fig. 6 busy-wait scalability problem).
	if done < sim.Time(1800*sim.Microsecond) || done > sim.Time(2500*sim.Microsecond) {
		t.Fatalf("worker done at %v, want ~2ms under 50%% poller load", done)
	}
}

func TestKillDropsWork(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	th := k.NewThread("victim", ClassNormal, 0)
	ran := false
	k.Submit(th, "j", 10*sim.Millisecond, func() { ran = true })
	eng.After(sim.Millisecond, "kill", func() { k.Kill(th) })
	eng.Run()
	if ran {
		t.Fatal("killed thread's work completed")
	}
	if th.State() != Dead {
		t.Fatalf("state = %v", th.State())
	}
	// Submitting to a dead thread is a no-op.
	k.Submit(th, "post", 100, func() { ran = true })
	eng.Run()
	if ran {
		t.Fatal("dead thread ran work")
	}
}

func TestOfflineCoreMigratesThreads(t *testing.T) {
	eng, m, k := newKernel(t, 2)
	a := k.NewThread("a", ClassNormal, 1) // pinned to the doomed core
	var done sim.Time
	k.Submit(a, "j", 5*sim.Millisecond, func() { done = eng.Now() })
	eng.RunFor(sim.Millisecond)
	if err := k.OfflineCore(1, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == 0 {
		t.Fatal("migrated thread never finished")
	}
	if a.Core() != 0 {
		t.Fatalf("thread on core %d, want 0", a.Core())
	}
	if m.Core(1).Power() != hw.Offline {
		t.Fatalf("core power = %v", m.Core(1).Power())
	}
	if k.OnlineCount() != 1 {
		t.Fatalf("online = %d", k.OnlineCount())
	}
}

func TestOfflineCoreHandoffToRealm(t *testing.T) {
	eng, m, k := newKernel(t, 2)
	handed := false
	if err := k.OfflineCore(1, func() { handed = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !handed {
		t.Fatal("handoff not invoked")
	}
	if m.Core(1).Power() != hw.DedicatedRealm {
		t.Fatalf("power = %v, want dedicated-realm", m.Core(1).Power())
	}
}

func TestOfflineLastCoreRefused(t *testing.T) {
	_, _, k := newKernel(t, 2)
	if err := k.OfflineCore(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.OfflineCore(1, nil); err != ErrLastCore {
		t.Fatalf("err = %v, want ErrLastCore", err)
	}
}

func TestOfflineTwiceRefused(t *testing.T) {
	_, _, k := newKernel(t, 3)
	if err := k.OfflineCore(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.OfflineCore(1, nil); err != ErrCoreOffline {
		t.Fatalf("err = %v", err)
	}
}

func TestOnlineCoreRestoresScheduling(t *testing.T) {
	eng, _, k := newKernel(t, 2)
	if err := k.OfflineCore(1, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := k.OnlineCore(1); err != nil {
		t.Fatal(err)
	}
	if err := k.OnlineCore(1); err != ErrCoreOnline {
		t.Fatalf("double online err = %v", err)
	}
	th := k.NewThread("back", ClassNormal, 1)
	var done sim.Time
	k.Submit(th, "j", 100, func() { done = eng.Now() })
	eng.Run()
	if done == 0 || th.Core() != 1 {
		t.Fatalf("thread did not run on re-onlined core (done=%v core=%d)", done, th.Core())
	}
	if k.OnlineCount() != 2 {
		t.Fatal("online count")
	}
}

func TestIRQRetargetOnOffline(t *testing.T) {
	eng, m, k := newKernel(t, 2)
	irq := hw.SPIBase + 1
	var got []hw.CoreID
	k.RegisterIRQ(irq, func(core hw.CoreID) { got = append(got, core) })
	if err := k.OfflineCore(1, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	m.SendIPI(0, 1, irq)
	eng.Run()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("irq for offlined core 1 handled on %v, want [0]", got)
	}
}

func TestQueueAccessors(t *testing.T) {
	eng, _, k := newKernel(t, 1)
	a := k.NewThread("a", ClassNormal, 0)
	b := k.NewThread("b", ClassNormal, 0)
	k.Submit(a, "j", sim.Millisecond, nil)
	k.Submit(b, "j", sim.Millisecond, nil)
	eng.RunFor(sim.Microsecond)
	if k.CoreQueueLen(0) != 2 {
		t.Fatalf("queue len = %d", k.CoreQueueLen(0))
	}
	if k.Running(0) != a {
		t.Fatal("running thread wrong")
	}
	if k.CoreQueueLen(99) != 0 || k.Running(99) != nil {
		t.Fatal("unknown core accessors")
	}
}

func TestClassAndStateStrings(t *testing.T) {
	if ClassNormal.String() != "normal" || ClassFIFO.String() != "fifo" {
		t.Fatal("class strings")
	}
	if Blocked.String() != "blocked" || Running.String() != "running" ||
		Runnable.String() != "runnable" || Dead.String() != "dead" {
		t.Fatal("state strings")
	}
}
