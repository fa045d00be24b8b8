package host

import (
	"math"

	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// A rotation is a core whose runnable threads take turns at poll slices
// that find nothing: the Fig. 6 busy-wait host core between exits. Run
// slice by slice, each turn costs a queued completion, a context switch
// and a host-domain RecordExecution, and changes only counters. A
// rotation instead keeps the turns out of the event queue. Each slice
// end fires as an engine chain event (sim.Engine.SetChain) at exactly
// the place in the event order its queued completion would have had, and
// does that slice's bookkeeping: the thread's CPU time, the next
// thread's switch-in and context-switch count, and its RecordExecution,
// so the host core's µarch fills draw hw.tags in the same order as
// before. The slice's sequence numbers are reserved as if queued, so
// every queued event is numbered exactly as in the per-slice chain.
//
// The rotation stops at the first slice end that has an effect (its
// stop): the end of a poll that finds work (Poll.ReadyAt, PollReady), or
// the end of the turn before a thread with work queued. That slice's
// completion is queued as usual, under its reserved number, and the
// kernel carries on slice by slice until the next poll slice it
// dispatches can rotate again. Anything else that changes the core's
// course (a wake-up onto the core, StealCPU, Kill, hotplug,
// SetIdlePoll, SetQuantum) first settles the rotation: it puts the run
// queue, the slice in progress and its deferred quantum back exactly as
// the per-slice chain would have left them.
type rotation struct {
	core *hw.Core
	// The core's runnable threads, in turn order, are the one that began
	// the rotation and then the run queue, which stays as it was while
	// the rotation runs. order holds the idle pollers among them that
	// the rotation reaches: all of them when laps, else those before the
	// first thread with work, before whose turn the rotation stops.
	order []*Thread
	laps  bool
	// ends[i] is when order[i]'s slice ends, from the start of a lap;
	// lap is a whole lap.
	ends []sim.Duration
	lap  sim.Duration
	// n numbers the slice in progress (0 began the rotation); order[pos]
	// runs it, from start to end. seq is its completion's reserved
	// sequence number, seq+1 its quantum's.
	n          uint64
	pos        int
	start, end sim.Time
	seq        uint64
	// stop is the first slice whose completion must be queued.
	stop uint64
}

// noStop is a slice the rotation never reaches.
const noStop = math.MaxUint64

// quiet reports whether a queued thread's next turn is a fresh poll
// slice the rotation can account: a normal-class poller with nothing
// queued or preempted, whose slice ends within its quantum.
func (k *Kernel) quiet(t *Thread) bool {
	return t.poll != nil && t.cur == nil && t.QueueLen() == 0 &&
		t.poll.Slice > 0 && t.poll.Slice < k.quantum
}

// rotate tries to begin a rotation with t, just dispatched on cs for a
// fresh poll slice. It reports false, changing nothing, when the slice's
// own end already has an effect; the caller then starts it as usual.
func (k *Kernel) rotate(cs *coreSched, t *Thread) bool {
	p := t.poll
	now := k.eng.Now()
	if t.class != ClassNormal || p.Slice <= 0 || p.Slice >= k.quantum {
		return false
	}
	ready := t.readyAt(now)
	if ready <= now.Add(p.Slice) ||
		(cs.normQ.n > 0 && !k.quiet(cs.normQ.at(0))) {
		return false
	}
	r := &cs.rot
	r.order = append(r.order[:0], t)
	t.rot, t.rotIdx = cs, 0
	off := p.Slice
	r.ends = append(r.ends[:0], off)
	for i := range cs.normQ.n {
		u := cs.normQ.at(i)
		if !k.quiet(u) {
			break
		}
		u.rot, u.rotIdx = cs, len(r.order)
		r.order = append(r.order, u)
		off += u.poll.Slice
		r.ends = append(r.ends, off)
	}
	r.laps = len(r.order) == 1+cs.normQ.n
	r.lap = off
	r.n, r.pos, r.start, r.end = 0, 0, now, now.Add(p.Slice)
	r.stop = noStop
	if !r.laps {
		r.stop = uint64(len(r.order) - 1)
	}
	r.stop = min(r.stop, r.firstPoll(0, ready))
	for i := 1; i < len(r.order); i++ {
		r.stop = min(r.stop, r.firstPoll(i, r.order[i].readyAt(now)))
	}
	if r.stop == 0 {
		return false
	}
	t.sliceStart = now
	r.core = k.mach.Core(cs.id)
	r.core.Exec.Hold(pollLabel)
	// The numbers Exec.Start and the quantum's Defer would have taken.
	r.seq = k.eng.Reserve()
	k.eng.Reserve()
	cs.rotating = true
	k.rots = append(k.rots, cs)
	k.updateChain()
	return true
}

// firstPoll reports the first slice, from the one in progress, at whose
// end order[i] polls at or after at: the slice whose completion finds
// its work.
func (r *rotation) firstPoll(i int, at sim.Time) uint64 {
	if at == sim.Forever {
		return noStop
	}
	d := i - r.pos
	// order[i]'s next slice ends d turns after the slice in progress.
	end := r.end.Add(r.ends[i] - r.ends[r.pos])
	if d < 0 {
		if !r.laps {
			return noStop
		}
		d += len(r.order)
		end = end.Add(r.lap)
	}
	j := r.n + uint64(d)
	switch {
	case end >= at:
		return j
	case !r.laps:
		return noStop
	}
	laps := (at.Sub(end) + r.lap - 1) / r.lap
	return j + uint64(laps)*uint64(len(r.order))
}

// turnBefore reports the slice that ends just before order[i]'s next
// turn (after the slice in progress, if that is order[i]'s).
func (r *rotation) turnBefore(i int) uint64 {
	d := i - r.pos - 1
	if d < 0 {
		if !r.laps {
			return noStop
		}
		d += len(r.order)
	}
	return r.n + uint64(d)
}

// rotCore reports the rotating core t takes turns on as an idle poller,
// or nil.
func (t *Thread) rotCore() *coreSched {
	cs := t.rot
	if cs == nil || !cs.rotating || t.rotIdx >= len(cs.rot.order) || cs.rot.order[t.rotIdx] != t {
		return nil
	}
	return cs
}

// stopAt moves cs's stop up to slice j if that is sooner, settling at
// once when j is the slice in progress.
func (k *Kernel) stopAt(cs *coreSched, j uint64) {
	r := &cs.rot
	if j >= r.stop {
		return
	}
	r.stop = j
	if j == r.n {
		k.endRotation(cs)
	}
}

// advance fires the chain: the slice ends due on the rotating cores, in
// (time, sequence) order, while they precede (until, untilSeq) and no
// rotation stops. For each it does what sliceDone and dispatch would for
// an empty poll: charge the slice, switch in the next thread, record its
// execution and reserve the next slice's numbers. Runs of identical
// executions on one core are recorded in one call. It reports when the
// last slice it fired ended.
func (k *Kernel) advance(until sim.Time, untilSeq uint64) sim.Time {
	var (
		last sim.Time
		// n executions of dom with footprint fp on core, not yet recorded
		core *hw.Core
		dom  uarch.DomainID
		fp   float64
		n    int
	)
	for {
		cs := k.next
		r := &cs.rot
		last = r.end
		prev := r.order[r.pos]
		prev.cpuTime += r.end.Sub(r.start)
		prev.cur, prev.rem, prev.state = nil, 0, Runnable
		r.n++
		if r.pos++; r.pos == len(r.order) {
			r.pos = 0
		}
		t := r.order[r.pos]
		cs.cur = t
		t.state = Running
		t.switches++
		k.eng.Count(cCtxSwitch)
		if d, f := k.execOf(t); r.core != core || d != dom || f != fp {
			if n > 0 {
				core.RecordExecutions(dom, fp, 0, n)
			}
			core, dom, fp, n = r.core, d, f, 0
		}
		n++
		r.start, r.end = r.end, r.end.Add(t.poll.Slice)
		r.seq = k.eng.Reserve()
		k.eng.Reserve()
		if r.n == r.stop {
			core.RecordExecutions(dom, fp, 0, n)
			k.endRotation(cs)
			return last
		}
		k.pickNext()
		if nx := &k.next.rot; nx.end > until || (nx.end == until && nx.seq > untilSeq) {
			break
		}
	}
	core.RecordExecutions(dom, fp, 0, n)
	k.updateChain()
	return last
}

// settle ends cs's rotation, if it has one.
func (k *Kernel) settle(cs *coreSched) {
	if cs.rotating {
		k.endRotation(cs)
	}
}

// endRotation hands cs back to slice-by-slice scheduling, exactly as
// the per-slice chain would have left it: the run queue in turn order
// after the thread in progress, whose poll slice runs on with its
// completion and its deferred quantum under their reserved numbers.
func (k *Kernel) endRotation(cs *coreSched) {
	r := &cs.rot
	t := r.order[r.pos]
	// The queue in turn order after t: each of the pos turns taken
	// dispatched the run queue's head and requeued the thread before it
	// at the tail.
	for _, u := range r.order[:r.pos] {
		cs.normQ.popFront()
		cs.normQ.pushBack(u)
	}
	slice := r.end.Sub(r.start)
	t.slot = workItem{label: pollLabel, work: slice, fn: t.poll.Action}
	t.cur, t.rem, t.sliceStart = &t.slot, slice, r.start
	r.core.Exec.Resume(r.start, slice, r.seq, cs.sliceDoneFn)
	cs.quantum.DeferReserved(r.start.Add(k.quantum), r.seq+1)
	cs.rotating = false
	for i, c := range k.rots {
		if c == cs {
			k.rots = append(k.rots[:i], k.rots[i+1:]...)
			break
		}
	}
	k.updateChain()
}

// pickNext points k.next at the rotating core whose slice ends first
// (nil when none rotates).
func (k *Kernel) pickNext() {
	k.next = nil
	for _, cs := range k.rots {
		if n := k.next; n == nil || cs.rot.end < n.rot.end ||
			(cs.rot.end == n.rot.end && cs.rot.seq < n.rot.seq) {
			k.next = cs
		}
	}
}

// updateChain points the engine's chain at the rotating core whose slice
// ends first, or ends the chain when no core rotates.
func (k *Kernel) updateChain() {
	k.pickNext()
	if k.next == nil {
		k.eng.SetChain(sim.Forever, 0, nil)
		return
	}
	k.eng.SetChain(k.next.rot.end, k.next.rot.seq, k.advanceFn)
}
