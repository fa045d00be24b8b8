package host

import (
	"errors"

	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// DefaultQuantum is the normal-class timeslice.
const DefaultQuantum = 4 * sim.Millisecond

// Host-kernel counters: scheduler and IRQ activity per trial.
var (
	cSubmits    = sim.DefineCounter("host.submits")
	cCtxSwitch  = sim.DefineCounter("host.ctx_switches")
	cIRQSteals  = sim.DefineCounter("host.irq_steals")
	cIRQs       = sim.DefineCounter("host.irqs")
	cHotplugOff = sim.DefineCounter("host.hotplug_offlines")
	cHotplugOn  = sim.DefineCounter("host.hotplug_onlines")
)

// Kernel is the host OS: per-core run queues, two scheduling classes,
// IRQ dispatch, and CPU hotplug.
type Kernel struct {
	eng  *sim.Engine
	mach *hw.Machine

	cores   map[hw.CoreID]*coreSched
	quantum sim.Duration

	irqHandlers map[hw.IRQ]func(core hw.CoreID)
	irqCost     sim.Duration
	// irqCalls recycles the (handler, core) payloads of IRQ steals.
	irqCalls sim.Thunks[irqCall]

	// hostFootprint is how much per-core microarchitectural state a
	// scheduled host thread touches — the interference that cools guest
	// working sets on shared cores (§2.3).
	hostFootprint float64
}

type coreSched struct {
	k       *Kernel
	id      hw.CoreID
	cur     *Thread
	fifoQ   []*Thread
	normQ   []*Thread
	quantum *sim.Timer
	// stealing marks an in-progress IRQ steal: the executor belongs to
	// the IRQ path until it completes. stealFn is the steal's handler
	// and stolen the thread it interrupted (nil when the core was idle).
	stealing bool
	stealFn  func()
	stolen   *Thread
	offline  bool
	// hotplug is the pending end of an OfflineCore shutdown procedure.
	hotplug sim.Event

	// sliceDoneFn and stealDoneFn are cs.sliceDone and cs.stealDone,
	// bound once so the scheduling path allocates nothing.
	sliceDoneFn func()
	stealDoneFn func()
}

// NewKernel boots the host kernel on all of the machine's cores.
func NewKernel(mach *hw.Machine) *Kernel {
	k := &Kernel{
		eng:           mach.Engine(),
		mach:          mach,
		cores:         make(map[hw.CoreID]*coreSched),
		quantum:       DefaultQuantum,
		irqHandlers:   make(map[hw.IRQ]func(hw.CoreID)),
		irqCost:       600 * sim.Nanosecond,
		hostFootprint: 0.25,
	}
	for _, c := range mach.Cores() {
		k.adoptCore(c.ID())
	}
	return k
}

func (k *Kernel) adoptCore(id hw.CoreID) {
	cs := &coreSched{k: k, id: id}
	cs.sliceDoneFn = cs.sliceDone
	cs.stealDoneFn = cs.stealDone
	cs.quantum = sim.NewTimer(k.eng, "quantum", func() {
		k.quantumExpired(cs)
	})
	k.cores[id] = cs
	core := k.mach.Core(id)
	core.SetIRQHandler(func(from hw.CoreID, irq hw.IRQ) { k.handleIRQ(id, from, irq) })
}

// Engine reports the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Machine reports the underlying machine.
func (k *Kernel) Machine() *hw.Machine { return k.mach }

// SetQuantum overrides the normal-class timeslice.
func (k *Kernel) SetQuantum(q sim.Duration) { k.quantum = q }

// NewThread creates a blocked thread. pin may be hw.NoCore.
func (k *Kernel) NewThread(name string, class Class, pin hw.CoreID) *Thread {
	return &Thread{k: k, name: name, class: class, state: Blocked, pin: pin, core: hw.NoCore}
}

// SetIdlePoll turns t into a busy-wait server: instead of blocking when
// out of work, it repeatedly runs poll slices. This models the
// Quarantine-style yield-polling configuration of Fig. 6 (§4.3).
func (k *Kernel) SetIdlePoll(t *Thread, poll func() (sim.Duration, func())) {
	t.idlePoll = poll
}

// Submit queues a work item on t, waking it if blocked. label names the
// kind of work ("guest", "exit", "scan", ...) and must be a static
// string, as for sim.Engine.At; fn should be bound once per owner (or
// through a sim.Thunks when it carries a payload), not built per item.
func (k *Kernel) Submit(t *Thread, label string, work sim.Duration, fn func()) {
	if t.state == Dead {
		return
	}
	k.eng.Count(cSubmits)
	t.push(workItem{label: label, work: work, fn: fn})
	if t.state == Blocked {
		k.wake(t)
	}
}

// Kill terminates a thread, dropping queued work.
func (k *Kernel) Kill(t *Thread) {
	switch t.state {
	case Running:
		cs := k.cores[t.core]
		k.takeCurrent(cs)
		t.state = Dead
		k.dispatch(cs)
	case Runnable:
		cs := k.cores[t.core]
		cs.fifoQ = removeThread(cs.fifoQ, t)
		cs.normQ = removeThread(cs.normQ, t)
		t.state = Dead
	default:
		t.state = Dead
	}
	t.dropWork()
}

func removeThread(q []*Thread, t *Thread) []*Thread {
	out := q[:0]
	for _, x := range q {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}

// pickCore selects a core for a waking unpinned thread: fewest queued
// threads, ties to the lowest ID — a deterministic stand-in for the load
// balancer.
func (k *Kernel) pickCore(t *Thread) (hw.CoreID, error) {
	if t.pin != hw.NoCore {
		if cs, ok := k.cores[t.pin]; ok && !cs.offline {
			return t.pin, nil
		}
		// Affinity broken by hotplug: fall through to any core, as
		// Linux does when the pinned core goes away.
	}
	best := hw.NoCore
	bestLoad := 0
	for _, c := range k.mach.Cores() {
		cs, ok := k.cores[c.ID()]
		if !ok || cs.offline {
			continue
		}
		load := len(cs.fifoQ) + len(cs.normQ)
		if cs.cur != nil {
			load++
		}
		if best == hw.NoCore || load < bestLoad {
			best = c.ID()
			bestLoad = load
		}
	}
	if best == hw.NoCore {
		return hw.NoCore, errors.New("host: no online cores")
	}
	return best, nil
}

func (k *Kernel) wake(t *Thread) {
	core, err := k.pickCore(t)
	if err != nil {
		panic("host: waking thread with no online cores")
	}
	t.state = Runnable
	t.core = core
	cs := k.cores[core]
	if t.class == ClassFIFO {
		cs.fifoQ = append(cs.fifoQ, t)
		// FIFO wake preempts a running normal thread.
		if cs.cur != nil && cs.cur.class == ClassNormal && !cs.stealing {
			k.preemptCurrent(cs, true)
		}
	} else {
		cs.normQ = append(cs.normQ, t)
	}
	k.dispatch(cs)
}

// takeCurrent takes the running thread off its core, with its remaining
// work saved in rem and its slice charged as CPU time. During an IRQ
// steal StealCPU has already done both and stopped the executor, so
// only the steal's hold on the thread is dropped: stealDone then just
// runs its handler.
func (k *Kernel) takeCurrent(cs *coreSched) *Thread {
	t := cs.cur
	if cs.stealing {
		cs.stolen = nil
	} else {
		t.rem = k.mach.Core(cs.id).Exec.Preempt()
		t.cpuTime += k.eng.Now().Sub(t.sliceStart)
	}
	cs.quantum.Disarm()
	cs.cur = nil
	return t
}

// preemptCurrent stops the running thread; front requeues it at the head
// of its queue (involuntary preemption) rather than the tail.
func (k *Kernel) preemptCurrent(cs *coreSched, front bool) {
	if cs.cur == nil {
		return
	}
	t := k.takeCurrent(cs)
	t.state = Runnable
	if t.class == ClassFIFO {
		if front {
			cs.fifoQ = pushFront(cs.fifoQ, t)
		} else {
			cs.fifoQ = append(cs.fifoQ, t)
		}
	} else {
		if front {
			cs.normQ = pushFront(cs.normQ, t)
		} else {
			cs.normQ = append(cs.normQ, t)
		}
	}
}

// pushFront inserts t at the head of q, shifting in place so a run queue
// reuses its backing array.
func pushFront(q []*Thread, t *Thread) []*Thread {
	q = append(q, nil)
	copy(q[1:], q)
	q[0] = t
	return q
}

// popFront removes and returns the head of q, shifting in place so the
// run queue's backing array is never walked off and reallocated.
func popFront(q []*Thread) (*Thread, []*Thread) {
	t := q[0]
	copy(q, q[1:])
	q[len(q)-1] = nil
	return t, q[:len(q)-1]
}

func (k *Kernel) quantumExpired(cs *coreSched) {
	if cs.cur == nil || cs.stealing {
		return
	}
	// Round-robin: requeue at the tail.
	k.preemptCurrent(cs, false)
	k.dispatch(cs)
}

// dispatch runs the next thread on an idle core.
func (k *Kernel) dispatch(cs *coreSched) {
	if cs.cur != nil || cs.offline || cs.stealing {
		return
	}
	var t *Thread
	if len(cs.fifoQ) > 0 {
		t, cs.fifoQ = popFront(cs.fifoQ)
	} else if len(cs.normQ) > 0 {
		t, cs.normQ = popFront(cs.normQ)
	} else {
		return
	}
	if !t.takeNext() {
		// Nothing to do: block and try the next candidate.
		t.state = Blocked
		k.dispatch(cs)
		return
	}
	cs.cur = t
	t.state = Running
	t.core = cs.id
	t.switches++
	k.eng.Count(cCtxSwitch)

	dom, fp := t.domain, t.footprint
	if dom == uarch.DomainNone {
		dom, fp = uarch.DomainHost, k.hostFootprint
	}
	k.mach.Core(cs.id).RecordExecution(dom, fp, 0)
	k.startCurrent(cs)
	// Arm the quantum after starting the slice so that a slice completing
	// exactly at quantum expiry counts as a completion, not a preemption.
	// Most slices end before their quantum, so the expiry is only
	// reserved, and queued once it falls within what the core runs: this
	// slice here, or the IRQ steal or resumed slice that stretches it
	// (StealCPU, stealDone).
	if t.class == ClassNormal {
		cs.quantum.Defer(k.quantum)
		cs.quantum.Commit(k.mach.Core(cs.id).Exec.End())
	}
}

// startCurrent starts (or restarts after an IRQ steal) the executor slice
// for cs.cur's current work item.
func (k *Kernel) startCurrent(cs *coreSched) {
	t := cs.cur
	t.sliceStart = k.eng.Now()
	k.mach.Core(cs.id).Exec.Start(t.cur.label, t.rem, 1.0, cs.sliceDoneFn)
}

// sliceDone completes cs.cur's current work item. The executor's
// completion fires only for an unpreempted slice, and every path that
// replaces cs.cur preempts first, so cs.cur is still the thread whose
// slice startCurrent began.
func (cs *coreSched) sliceDone() {
	k := cs.k
	t := cs.cur
	t.cpuTime += k.eng.Now().Sub(t.sliceStart)
	cs.quantum.Disarm()
	fn := t.cur.fn
	t.cur = nil
	t.rem = 0
	cs.cur = nil
	// Completion callback may submit more work, wake threads, etc.
	if fn != nil {
		fn()
	}
	if t.state == Running {
		// Still ours: run its next item or block. A completed FIFO
		// thread with more work continues at the queue head (it was
		// never preempted).
		if t.hasWork() || t.idlePoll != nil {
			t.state = Runnable
			if t.class == ClassFIFO {
				cs.fifoQ = pushFront(cs.fifoQ, t)
			} else {
				cs.normQ = append(cs.normQ, t)
			}
		} else {
			t.state = Blocked
		}
	}
	k.dispatch(cs)
}

// CoreQueueLen reports runnable threads queued on a core.
func (k *Kernel) CoreQueueLen(id hw.CoreID) int {
	cs := k.cores[id]
	if cs == nil {
		return 0
	}
	n := len(cs.fifoQ) + len(cs.normQ)
	if cs.cur != nil {
		n++
	}
	return n
}

// Running reports the thread currently on a core (nil when idle).
func (k *Kernel) Running(id hw.CoreID) *Thread {
	if cs := k.cores[id]; cs != nil {
		return cs.cur
	}
	return nil
}
