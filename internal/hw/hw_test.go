package hw

import (
	"slices"
	"testing"

	"coregap/internal/sim"
	"coregap/internal/uarch"
)

func newMachine(t *testing.T, cores int) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine(1)
	return eng, NewMachine(eng, DefaultConfig(cores))
}

func TestMachineBasics(t *testing.T) {
	eng, m := newMachine(t, 4)
	if m.NumCores() != 4 || len(m.Cores()) != 4 {
		t.Fatalf("cores = %d", m.NumCores())
	}
	if m.Engine() != eng {
		t.Fatal("engine accessor")
	}
	if m.GPT() == nil || m.Shared() == nil {
		t.Fatal("missing GPT/shared state")
	}
	c := m.Core(2)
	if c.ID() != 2 || c.World() != NormalWorld || c.Power() != Online {
		t.Fatalf("core defaults: %v %v %v", c.ID(), c.World(), c.Power())
	}
}

func TestCorePanicOnBadID(t *testing.T) {
	_, m := newMachine(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid core id")
		}
	}()
	m.Core(7)
}

func TestIPIDeliveryLatencyAndHandler(t *testing.T) {
	eng, m := newMachine(t, 2)
	var gotFrom CoreID
	var gotIRQ IRQ
	var at sim.Time
	m.Core(1).SetIRQHandler(func(from CoreID, irq IRQ) {
		gotFrom, gotIRQ, at = from, irq, eng.Now()
	})
	m.SendIPI(0, 1, IPIGuestExit)
	eng.Run()
	if gotFrom != 0 || gotIRQ != IPIGuestExit {
		t.Fatalf("got %v/%v", gotFrom, gotIRQ)
	}
	if at != sim.Time(m.IPILatency()) {
		t.Fatalf("delivered at %v, want %v", at, m.IPILatency())
	}
}

func TestIPIToHandlerlessCoreDropped(t *testing.T) {
	eng, m := newMachine(t, 2)
	m.SendIPI(0, 1, IPICall) // no handler installed: must not panic
	eng.Run()
}

func TestIPIOwnershipChangeInFlight(t *testing.T) {
	eng, m := newMachine(t, 2)
	first, second := 0, 0
	m.Core(1).SetIRQHandler(func(CoreID, IRQ) { first++ })
	m.SendIPI(0, 1, IPICall)
	// Ownership changes before delivery: new handler receives it.
	m.Core(1).SetIRQHandler(func(CoreID, IRQ) { second++ })
	eng.Run()
	if first != 0 || second != 1 {
		t.Fatalf("first=%d second=%d, want 0/1", first, second)
	}
}

func TestDeviceIRQDelivery(t *testing.T) {
	eng, m := newMachine(t, 2)
	var got IRQ
	var from CoreID = 99
	m.Core(0).SetIRQHandler(func(f CoreID, irq IRQ) { got, from = irq, f })
	m.SendIPI(1, 0, SPIBase+3)
	eng.Run()
	if got != SPIBase+3 || from != 1 {
		t.Fatalf("got irq %v from %v", got, from)
	}
}

func TestWorldSwitchCost(t *testing.T) {
	_, m := newMachine(t, 1)
	c := m.Core(0)
	if d := c.SwitchWorld(NormalWorld); d != 0 {
		t.Fatalf("no-op switch cost %v", d)
	}
	if d := c.SwitchWorld(RealmWorld); d <= 0 {
		t.Fatalf("switch cost %v", d)
	}
	if c.World() != RealmWorld {
		t.Fatal("world not switched")
	}
}

func TestPowerStates(t *testing.T) {
	_, m := newMachine(t, 4)
	m.SetPower(1, DedicatedRealm)
	m.SetPower(2, Offline)
	online := m.OnlineCores()
	if len(online) != 2 || online[0] != 0 || online[1] != 3 {
		t.Fatalf("online = %v", online)
	}
	ded := m.DedicatedCores()
	if len(ded) != 1 || ded[0] != 1 {
		t.Fatalf("dedicated = %v", ded)
	}
}

func TestExecutionAuditLog(t *testing.T) {
	eng, m := newMachine(t, 1)
	c := m.Core(0)
	c.RecordExecution(uarch.DomainHost, 0.1, 0)
	c.RecordExecution(uarch.Guest(0), 0.1, 0)
	c.RecordExecution(uarch.DomainHost, 0.1, 0)
	want := []DomainRun{{uarch.DomainHost, 0, 2}, {uarch.Guest(0), 1, 1}}
	if doms := c.DomainsObserved(); !slices.Equal(doms, want) {
		t.Fatalf("domains = %v, want %v", doms, want)
	}
	if c.CurrentDomain() != uarch.DomainHost {
		t.Fatal("current domain")
	}
	// Uarch state must have been touched.
	if c.Uarch.Warmth(uarch.Guest(0)) == 0 {
		t.Fatal("RecordExecution did not touch uarch state")
	}
	// The record is complete: it keeps tracking past any fixed depth.
	for i := 0; i < 5000; i++ {
		c.RecordExecution(uarch.DomainMonitor, 0.1, 0)
	}
	c.RecordExecution(uarch.Guest(0), 0.1, 0)
	want = []DomainRun{{uarch.DomainHost, 0, 2}, {uarch.Guest(0), 1, 5003}, {uarch.DomainMonitor, 3, 5002}}
	if doms := c.DomainsObserved(); !slices.Equal(doms, want) {
		t.Fatalf("domains after 5004 executions = %v, want %v", doms, want)
	}
	eng.Reset(1)
	m.Reset(DefaultConfig(1))
	if doms := c.DomainsObserved(); len(doms) != 0 {
		t.Fatalf("domains after reset = %v", doms)
	}
	c.RecordExecution(uarch.Guest(1), 0.1, 0)
	if doms := c.DomainsObserved(); !slices.Equal(doms, []DomainRun{{uarch.Guest(1), 0, 0}}) {
		t.Fatalf("domains after reset and one execution = %v", doms)
	}
}

func TestSGIPredicates(t *testing.T) {
	if !IPIGuestExit.IsSGI() || !IPIReschedule.IsSGI() {
		t.Fatal("SGIs not recognised")
	}
	if IRQVTimer.IsSGI() || SPIBase.IsSGI() {
		t.Fatal("non-SGI recognised as SGI")
	}
}

func TestStringers(t *testing.T) {
	if NormalWorld.String() != "normal" || RealmWorld.String() != "realm" || RootWorld.String() != "root" {
		t.Fatal("world strings")
	}
	if Online.String() != "online" || DedicatedRealm.String() != "dedicated-realm" || Offline.String() != "offline" {
		t.Fatal("power strings")
	}
}

func TestExecutorRunToCompletion(t *testing.T) {
	eng, m := newMachine(t, 1)
	x := m.Core(0).Exec
	done := false
	x.Start("job", 1000, 1.0, func() { done = true })
	if !x.Busy() || x.Label() != "job" {
		t.Fatal("executor not busy after Start")
	}
	eng.Run()
	if !done {
		t.Fatal("onDone not called")
	}
	if eng.Now() != 1000 {
		t.Fatalf("completed at %v, want 1000", eng.Now())
	}
	if x.Busy() {
		t.Fatal("still busy after completion")
	}
	if x.BusyTime() != 1000 {
		t.Fatalf("busy time = %v", x.BusyTime())
	}
}

func TestExecutorSpeedFactor(t *testing.T) {
	eng, m := newMachine(t, 1)
	x := m.Core(0).Exec
	x.Start("slow", 1000, 0.5, nil)
	eng.Run()
	if eng.Now() != 2000 {
		t.Fatalf("half-speed 1000ns finished at %v, want 2000", eng.Now())
	}
}

func TestExecutorPreemptResume(t *testing.T) {
	eng, m := newMachine(t, 1)
	x := m.Core(0).Exec
	done := false
	x.Start("job", 1000, 1.0, func() { done = true })
	eng.RunFor(400)
	remaining := x.Preempt()
	if remaining != 600 {
		t.Fatalf("remaining = %v, want 600", remaining)
	}
	if done {
		t.Fatal("onDone fired on preempt")
	}
	if x.Busy() {
		t.Fatal("busy after preempt")
	}
	// Resume the remainder later.
	eng.RunFor(100)
	x.Start("job", remaining, 1.0, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("resumed work never completed")
	}
	if eng.Now() != 1100 {
		t.Fatalf("finished at %v, want 1100", eng.Now())
	}
	if x.BusyTime() != 1000 {
		t.Fatalf("busy time = %v, want 1000", x.BusyTime())
	}
}

func TestExecutorPreemptIdle(t *testing.T) {
	_, m := newMachine(t, 1)
	if r := m.Core(0).Exec.Preempt(); r != 0 {
		t.Fatalf("preempt idle = %v", r)
	}
}

func TestExecutorDoubleStartPanics(t *testing.T) {
	_, m := newMachine(t, 1)
	x := m.Core(0).Exec
	x.Start("a", 100, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	x.Start("b", 100, 1, nil)
}

func TestExecutorUtilization(t *testing.T) {
	eng, m := newMachine(t, 1)
	x := m.Core(0).Exec
	x.Start("j", 500, 1, nil)
	eng.RunUntil(1000)
	if u := x.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

func TestExecutorZeroWork(t *testing.T) {
	eng, m := newMachine(t, 1)
	done := false
	m.Core(0).Exec.Start("nil", 0, 1, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("zero work never completed")
	}
}

// TestZeroAllocExecutor gates the executor's per-slice path and the
// interrupt wires: once warm, a Start/Preempt/Start/complete cycle and
// an IPI in flight allocate nothing.
func TestZeroAllocExecutor(t *testing.T) {
	eng, m := newMachine(t, 2)
	x := m.Core(0).Exec
	done, irqs := 0, 0
	onDone := func() { done++ }
	m.Core(1).SetIRQHandler(func(CoreID, IRQ) { irqs++ })
	cycle := func() {
		x.Start("job", 1000, 1.0, onDone)
		eng.RunFor(100)
		eng.RunFor(100)
		rem := x.Preempt()
		x.Start("job", rem, 1.0, onDone)
		m.SendIPI(0, 1, IPIGuestExit)
		eng.Run()
	}
	cycle()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("executor cycle: %.2f allocs/op in steady state, want 0", avg)
	}
	if done != 1002 || irqs != 1002 {
		t.Fatalf("completions = %d, irqs = %d; want 1002 and 1002", done, irqs)
	}
}

// TestZeroAllocRecordExecution gates the dispatch-path audit: once every
// domain running on a core has been seen there, recording an execution
// (domain record plus µarch touch) allocates nothing, however long the
// run.
func TestZeroAllocRecordExecution(t *testing.T) {
	_, m := newMachine(t, 1)
	c := m.Core(0)
	cycle := func() {
		c.RecordExecution(uarch.DomainHost, 0.25, 0)
		c.RecordExecution(uarch.DomainMonitor, 0.05, 0)
		c.RecordExecution(uarch.Guest(0), 0.6, 0.3)
	}
	for i := 0; i < 1000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("RecordExecution: %.2f allocs/op in steady state, want 0", avg)
	}
	if runs := c.DomainsObserved(); len(runs) != 3 || runs[2].Last != c.execs-1 {
		t.Fatalf("domain record = %v after %d executions", runs, c.execs)
	}
}
