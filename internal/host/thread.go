// Package host models the untrusted host software stack: a Linux-like
// kernel scheduler with normal and FIFO (real-time) classes, CPU hotplug
// with the paper's realm-handoff modification (§4.2), IRQ routing and the
// wake-up thread machinery for asynchronous RMM calls (§4.3, Fig. 4).
package host

import (
	"fmt"

	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// Class is a thread's scheduling class.
type Class int

// Scheduling classes.
const (
	// ClassNormal is time-shared with a quantum (CFS stand-in).
	ClassNormal Class = iota
	// ClassFIFO runs to block and preempts normal threads — the class
	// the prototype uses for vCPU threads so they "typically run until
	// completion" after a wake-up (§4.3).
	ClassFIFO
)

func (c Class) String() string {
	if c == ClassFIFO {
		return "fifo"
	}
	return "normal"
}

// ThreadState is a thread's lifecycle state.
type ThreadState int

// Thread states.
const (
	Blocked ThreadState = iota
	Runnable
	Running
	Dead
)

func (s ThreadState) String() string {
	switch s {
	case Blocked:
		return "blocked"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("tstate(%d)", int(s))
	}
}

type workItem struct {
	label string
	work  sim.Duration
	fn    func()
}

// Poll is a busy-wait server's idle loop (SetIdlePoll): with no work
// queued, its thread runs Slice-long poll slices back to back and calls
// Action at the end of each. ReadyAt reports the earliest instant from
// which Action would find work (sim.Forever when none is pending). An
// Action called before then must have no effect at all, and the owner
// must call Kernel.PollReady whenever ReadyAt may have moved earlier:
// the kernel then runs only the slices whose Action finds work, and
// accounts the empty ones without firing them (rotation.go).
type Poll struct {
	Slice   sim.Duration
	Action  func()
	ReadyAt func() sim.Time
}

// pollLabel labels a poll slice's work item.
const pollLabel = "poll"

// Thread is a host kernel thread. Threads execute queued work items in
// FIFO order and block when their queue drains (unless they have an idle
// poll, which models busy-wait servers).
type Thread struct {
	k     *Kernel
	name  string
	class Class
	state ThreadState

	// pin restricts the thread to one core (NoCore = any online core).
	pin hw.CoreID
	// core is where the thread is running or queued.
	core hw.CoreID

	// inbox[head:] is the pending work; popping advances head, and the
	// array is rewound once drained (or compacted when full), so a
	// steady stream of Submits reuses one backing array.
	inbox []workItem
	head  int
	// cur is nil or &slot: the item being executed lives in the thread.
	cur  *workItem
	slot workItem
	rem  sim.Duration

	// poll, when set, makes the thread a busy-wait server: out of work,
	// it runs poll slices instead of blocking (SetIdlePoll). fresh marks
	// a poll slice takeNext has just begun, for dispatch to consider
	// rotating the core.
	poll  *Poll
	fresh bool
	// ready is what poll.ReadyAt last reported: PollReady and every
	// completed poll slice refresh it. It is never later than the truth
	// while it lies ahead.
	ready sim.Time
	// rot and rotIdx place the thread in the last rotation it joined:
	// rot.rot.order[rotIdx], valid only while that rotation runs and
	// still holds the thread there (rotCore).
	rot    *coreSched
	rotIdx int

	cpuTime    sim.Duration
	sliceStart sim.Time
	switches   uint64

	// domain & footprint describe whose code this thread executes for
	// the microarchitectural model: host threads pollute lightly; vCPU
	// threads running guest compute carry the guest's domain and a large
	// footprint (shared-core mode only).
	domain    uarch.DomainID
	footprint float64
}

// SetDomain marks the thread as executing code of the given security
// domain with the given per-core microarchitectural footprint.
func (t *Thread) SetDomain(d uarch.DomainID, footprint float64) {
	t.domain = d
	t.footprint = footprint
}

// Name reports the thread name.
func (t *Thread) Name() string { return t.name }

// State reports the thread state.
func (t *Thread) State() ThreadState { return t.state }

// Class reports the scheduling class.
func (t *Thread) Class() Class { return t.class }

// CPUTime reports accumulated execution time.
func (t *Thread) CPUTime() sim.Duration { return t.cpuTime }

// ContextSwitches reports how many times the thread was switched in.
func (t *Thread) ContextSwitches() uint64 { return t.switches }

// Core reports where the thread is (or last was) placed.
func (t *Thread) Core() hw.CoreID { return t.core }

// Pin reports the thread's pinned core (NoCore if unpinned).
func (t *Thread) Pin() hw.CoreID { return t.pin }

// QueueLen reports pending work items (excluding the current one).
func (t *Thread) QueueLen() int { return len(t.inbox) - t.head }

func (t *Thread) hasWork() bool { return t.cur != nil || t.QueueLen() > 0 }

// push appends a work item to the inbox, first sliding the pending
// items down over consumed ones when the array is full.
func (t *Thread) push(item workItem) {
	if t.head > 0 && len(t.inbox) == cap(t.inbox) {
		n := copy(t.inbox, t.inbox[t.head:])
		clear(t.inbox[n:])
		t.inbox = t.inbox[:n]
		t.head = 0
	}
	t.inbox = append(t.inbox, item)
}

// dropWork discards the current and every pending item (thread death).
func (t *Thread) dropWork() {
	clear(t.inbox)
	t.inbox = t.inbox[:0]
	t.head = 0
	t.cur = nil
	t.slot = workItem{}
}

// readyAt reports when t's poll next finds work, asking the poll again
// only if the last answer has passed.
func (t *Thread) readyAt(now sim.Time) sim.Time {
	if t.ready <= now {
		t.ready = t.poll.ReadyAt()
	}
	return t.ready
}

// takeNext loads the next work item into cur; it reports false when the
// inbox is empty and no idle poll is configured.
func (t *Thread) takeNext() bool {
	if t.cur != nil {
		return true
	}
	if t.QueueLen() > 0 {
		t.slot = t.inbox[t.head]
		t.inbox[t.head] = workItem{}
		t.head++
		if t.head == len(t.inbox) {
			t.inbox = t.inbox[:0]
			t.head = 0
		}
		t.cur = &t.slot
		t.rem = t.slot.work
		return true
	}
	if p := t.poll; p != nil {
		t.slot = workItem{label: pollLabel, work: p.Slice, fn: p.Action}
		t.cur = &t.slot
		t.rem = p.Slice
		t.fresh = true
		return true
	}
	return false
}
