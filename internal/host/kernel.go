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

	// rots are the rotating cores; next is the one whose slice ends
	// first, the engine's chain (rotation.go). advanceFn is k.advance,
	// bound once.
	rots      []*coreSched
	next      *coreSched
	advanceFn func(until sim.Time, untilSeq uint64) sim.Time
}

type coreSched struct {
	k       *Kernel
	id      hw.CoreID
	cur     *Thread
	fifoQ   runQueue
	normQ   runQueue
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

	// rot is the core's rotation of idle pollers, live while rotating.
	rot      rotation
	rotating bool

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
	k.advanceFn = k.advance
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
func (k *Kernel) SetQuantum(q sim.Duration) {
	for len(k.rots) > 0 {
		k.settle(k.rots[0])
	}
	k.quantum = q
}

// NewThread creates a blocked thread. pin may be hw.NoCore.
func (k *Kernel) NewThread(name string, class Class, pin hw.CoreID) *Thread {
	return &Thread{k: k, name: name, class: class, state: Blocked, pin: pin, core: hw.NoCore}
}

// SetIdlePoll turns t into a busy-wait server polling with p: out of
// work, it runs p's poll slices back to back instead of blocking. This
// models the Quarantine-style yield-polling configuration of Fig. 6
// (§4.3). A nil p turns polling off, so t blocks once its queue drains.
// A blocked thread starts polling at its next wake-up (a Submit). The
// kernel keeps p, which must not change while set.
func (k *Kernel) SetIdlePoll(t *Thread, p *Poll) {
	if cs := t.rotCore(); cs != nil {
		k.settle(cs)
	}
	t.poll, t.ready = p, 0
}

// PollReady tells the kernel that t's poll may find work sooner than
// it last reported (Poll.ReadyAt moved earlier).
func (k *Kernel) PollReady(t *Thread) {
	if t.poll == nil {
		return
	}
	t.ready = t.poll.ReadyAt()
	if cs := t.rotCore(); cs != nil {
		k.stopAt(cs, cs.rot.firstPoll(t.rotIdx, t.ready))
	}
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
	} else if cs := t.rotCore(); cs != nil {
		k.stopAt(cs, cs.rot.turnBefore(t.rotIdx))
	}
}

// Kill terminates a thread, dropping queued work.
func (k *Kernel) Kill(t *Thread) {
	switch t.state {
	case Running:
		cs := k.cores[t.core]
		k.settle(cs)
		k.takeCurrent(cs)
		t.state = Dead
		k.dispatch(cs)
	case Runnable:
		cs := k.cores[t.core]
		k.settle(cs)
		cs.fifoQ.remove(t)
		cs.normQ.remove(t)
		t.state = Dead
	default:
		t.state = Dead
	}
	t.dropWork()
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
		load := cs.fifoQ.n + cs.normQ.n
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
	k.settle(cs)
	if t.class == ClassFIFO {
		cs.fifoQ.pushBack(t)
		// FIFO wake preempts a running normal thread.
		if cs.cur != nil && cs.cur.class == ClassNormal && !cs.stealing {
			k.preemptCurrent(cs, true)
		}
	} else {
		cs.normQ.pushBack(t)
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
	q := &cs.normQ
	if t.class == ClassFIFO {
		q = &cs.fifoQ
	}
	if front {
		q.pushFront(t)
	} else {
		q.pushBack(t)
	}
}

// runQueue is one scheduling class's run queue on a core: a ring over a
// reused backing array whose length is a power of two, so that taking
// the head or putting a thread back at either end costs O(1) whatever
// the queue's length.
type runQueue struct {
	buf  []*Thread
	head int // buf index of the head
	n    int // threads queued
}

// at reports the i-th queued thread from the head.
func (q *runQueue) at(i int) *Thread { return q.buf[(q.head+i)&(len(q.buf)-1)] }

// grow makes room for one more thread, doubling a full ring.
func (q *runQueue) grow() {
	if q.n < len(q.buf) {
		return
	}
	buf := make([]*Thread, max(4, 2*len(q.buf)))
	for i := range q.n {
		buf[i] = q.at(i)
	}
	q.buf, q.head = buf, 0
}

func (q *runQueue) pushBack(t *Thread) {
	q.grow()
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

func (q *runQueue) pushFront(t *Thread) {
	q.grow()
	q.head = (q.head - 1) & (len(q.buf) - 1)
	q.buf[q.head] = t
	q.n++
}

// popFront removes and returns the head of a non-empty queue.
func (q *runQueue) popFront() *Thread {
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

// remove drops t from the queue, keeping the others in order.
func (q *runQueue) remove(t *Thread) {
	kept := 0
	for i := range q.n {
		if x := q.at(i); x != t {
			q.buf[(q.head+kept)&(len(q.buf)-1)] = x
			kept++
		}
	}
	for i := kept; i < q.n; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = nil
	}
	q.n = kept
}

// drain appends the queued threads, head first, to dst and empties the
// queue.
func (q *runQueue) drain(dst []*Thread) []*Thread {
	for q.n > 0 {
		dst = append(dst, q.popFront())
	}
	return dst
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
	if cs.fifoQ.n > 0 {
		t = cs.fifoQ.popFront()
	} else if cs.normQ.n > 0 {
		t = cs.normQ.popFront()
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
	dom, fp := k.execOf(t)
	k.mach.Core(cs.id).RecordExecution(dom, fp, 0)
	if t.fresh {
		// A poll slice: if it and the turns after it find nothing, the
		// core rotates instead of queueing their completions.
		t.fresh = false
		if k.rotate(cs, t) {
			return
		}
	}
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

// execOf reports whose code t runs and its per-core footprint, for
// RecordExecution: its own domain, or the host's light touch for a
// plain host thread.
func (k *Kernel) execOf(t *Thread) (uarch.DomainID, float64) {
	if t.domain == uarch.DomainNone {
		return uarch.DomainHost, k.hostFootprint
	}
	return t.domain, t.footprint
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
	fn, polled := t.cur.fn, t.cur.label == pollLabel
	t.cur = nil
	t.rem = 0
	cs.cur = nil
	// Completion callback may submit more work, wake threads, etc.
	if fn != nil {
		fn()
	}
	if polled && t.poll != nil {
		// The poll may have taken its work: ask when it next finds some
		// while its state is at hand.
		t.ready = t.poll.ReadyAt()
	}
	if t.state == Running {
		// Still ours: run its next item or block. A completed FIFO
		// thread with more work continues at the queue head (it was
		// never preempted).
		if t.hasWork() || t.poll != nil {
			t.state = Runnable
			if t.class == ClassFIFO {
				cs.fifoQ.pushFront(t)
			} else {
				cs.normQ.pushBack(t)
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
	n := cs.fifoQ.n + cs.normQ.n
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
