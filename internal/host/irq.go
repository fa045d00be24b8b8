package host

import (
	"fmt"

	"coregap/internal/hw"
	"coregap/internal/sim"
)

// RegisterIRQ installs a kernel-level handler for an interrupt. The
// handler runs in IRQ context on the receiving core (stealing CPU from
// whatever thread is running there), like a Linux hardirq handler.
func (k *Kernel) RegisterIRQ(irq hw.IRQ, fn func(core hw.CoreID)) {
	k.irqHandlers[irq] = fn
}

// handleIRQ is the per-core interrupt entry point.
func (k *Kernel) handleIRQ(core hw.CoreID, from hw.CoreID, irq hw.IRQ) {
	cs, ok := k.cores[core]
	if !ok || cs.offline {
		// Interrupt raced with hotplug: hardware re-routes in practice;
		// we deliver to the lowest online core.
		for _, c := range k.mach.Cores() {
			if s, ok := k.cores[c.ID()]; ok && !s.offline {
				k.handleIRQ(c.ID(), from, irq)
				return
			}
		}
		return
	}
	k.eng.Count(cIRQs)
	fn := k.irqHandlers[irq]
	if fn == nil {
		return
	}
	k.StealCPU(core, k.irqCost, k.irqCalls.Bind(runIRQ, irqCall{fn, core}))
}

// irqCall is a kernel IRQ handler bound to the core it was raised on.
type irqCall struct {
	fn   func(core hw.CoreID)
	core hw.CoreID
}

func runIRQ(c irqCall) { c.fn(c.core) }

// noop stands in for a nil steal handler where an event needs a callback.
func noop() {}

// StealCPU runs fn after cost of IRQ-context work on the given core,
// preempting (and then resuming) the current thread. This models hardirq
// processing: it charges the time to the core but not to any thread.
// fn may be nil; like a Submit callback it should be bound once, not
// built per interrupt.
func (k *Kernel) StealCPU(core hw.CoreID, cost sim.Duration, fn func()) {
	cs, ok := k.cores[core]
	if !ok {
		panic(fmt.Sprintf("host: StealCPU on unmanaged core %d", core))
	}
	exec := k.mach.Core(core).Exec
	k.eng.Count(cIRQSteals)
	k.eng.Trace().Span(sim.TCIRQ, "host.irq_steal", int32(core), cost, 0)

	if cs.stealing {
		// Nested IRQ: serialize after the current steal by deferring a
		// tiny amount; the handler chain remains deterministic.
		if fn == nil {
			fn = noop
		}
		k.eng.After(cost, "irq-nested", fn)
		return
	}

	cs.stealing = true
	cs.stealFn = fn
	cs.stolen = nil
	if t := cs.cur; t != nil {
		t.rem = exec.Preempt()
		t.cpuTime += k.eng.Now().Sub(t.sliceStart)
		cs.stolen = t
	}
	done := k.eng.After(cost, "irq", cs.stealDoneFn)
	// A quantum that expires during the steal fires as a no-op
	// (quantumExpired ignores a stealing core) and is used up.
	cs.quantum.Commit(done.Time())
}

// stealDone ends an IRQ steal: it runs the handler, then gives the core
// back — restarting the interrupted thread's executor slice when the
// steal still holds it, else dispatching afresh. Every path that takes
// cs.cur away mid-steal (Kill, OfflineCore, also from the handler)
// releases that hold through takeCurrent, so the held thread is still
// cs.cur.
func (cs *coreSched) stealDone() {
	k := cs.k
	if fn := cs.stealFn; fn != nil {
		cs.stealFn = nil
		fn()
	}
	t := cs.stolen
	cs.stolen = nil
	cs.stealing = false
	if t == nil {
		k.dispatch(cs)
		return
	}
	k.startCurrent(cs)
	cs.quantum.Commit(k.mach.Core(cs.id).Exec.End())
}
