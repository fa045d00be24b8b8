// Package gic models the per-vCPU list registers (ich_lr<n>_el2) of the
// GIC virtual CPU interface, through which virtual interrupts are
// presented to a guest (§4.4, Fig. 5). Physical interrupt delivery
// (SGIs/IPIs) is in package hw; a guest's virtual-timer ticks are a
// sim.Ticker per vCPU in package core.
package gic

import (
	"fmt"

	"coregap/internal/hw"
)

// NumListRegs is the number of list registers per virtual CPU interface.
// Arm implementations expose up to 16; we model the full architectural
// maximum.
const NumListRegs = 16

// LRState is the state of one list register, per the GIC architecture.
type LRState uint8

// List-register states.
const (
	Invalid LRState = iota
	Pending
	Active
	PendingActive
)

func (s LRState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Pending:
		return "pending"
	case Active:
		return "active"
	case PendingActive:
		return "pending+active"
	default:
		return fmt.Sprintf("lrstate(%d)", uint8(s))
	}
}

// ListReg is one ich_lr<n>_el2 slot.
type ListReg struct {
	IntID hw.IRQ
	State LRState
	// Hidden marks interrupts the RMM manages itself and filters out of
	// the host-visible list (the paper's transparent delegation, Fig. 5).
	Hidden bool
}

// Valid reports whether the slot holds a live interrupt.
func (lr ListReg) Valid() bool { return lr.State != Invalid }

// ListRegs is a virtual CPU interface's bank of list registers.
type ListRegs struct {
	regs [NumListRegs]ListReg
}

// Inject places intid into a free slot as Pending. It reports the slot
// index, or -1 when no free slot exists (the guest must drain first).
// Injecting an interrupt that is already pending is idempotent, matching
// edge-collapsed SGI/PPI semantics.
func (l *ListRegs) Inject(intid hw.IRQ, hidden bool) int {
	for i, r := range l.regs {
		if r.Valid() && r.IntID == intid && (r.State == Pending || r.State == PendingActive) {
			return i
		}
	}
	for i, r := range l.regs {
		if !r.Valid() {
			l.regs[i] = ListReg{IntID: intid, State: Pending, Hidden: hidden}
			return i
		}
	}
	return -1
}

// HighestPending reports the slot of the highest-priority pending
// interrupt (lowest INTID first, a simplification of GIC priorities), or
// -1 when none is pending.
func (l *ListRegs) HighestPending() int {
	best := -1
	for i, r := range l.regs {
		if r.State == Pending || r.State == PendingActive {
			if best == -1 || r.IntID < l.regs[best].IntID {
				best = i
			}
		}
	}
	return best
}

// Ack transitions a pending slot to Active, modelling the guest reading
// IAR. It panics on misuse: the guest model must only ack pending slots.
func (l *ListRegs) Ack(slot int) hw.IRQ {
	r := &l.regs[slot]
	switch r.State {
	case Pending:
		r.State = Active
	case PendingActive:
		r.State = Active
	default:
		panic(fmt.Sprintf("gic: ack of %v slot", r.State))
	}
	return r.IntID
}

// EOI retires an active slot, modelling the guest's end-of-interrupt.
func (l *ListRegs) EOI(slot int) {
	r := &l.regs[slot]
	if r.State != Active {
		panic(fmt.Sprintf("gic: EOI of %v slot", r.State))
	}
	*r = ListReg{}
}

// Pending reports how many slots are pending.
func (l *ListRegs) PendingCount() int {
	n := 0
	for _, r := range l.regs {
		if r.State == Pending || r.State == PendingActive {
			n++
		}
	}
	return n
}

// LiveCount reports how many slots are valid.
func (l *ListRegs) LiveCount() int {
	n := 0
	for _, r := range l.regs {
		if r.Valid() {
			n++
		}
	}
	return n
}

// At returns slot i's contents.
func (l *ListRegs) At(i int) ListReg { return l.regs[i] }

// VisibleSnapshot returns the host-visible view of the list: all
// non-hidden slots, in slot order. This is the filtered list the modified
// RMM exposes to KVM (Fig. 5 step 5) so delegation stays transparent.
func (l *ListRegs) VisibleSnapshot() []ListReg {
	var out []ListReg
	for _, r := range l.regs {
		if r.Valid() && !r.Hidden {
			out = append(out, r)
		}
	}
	return out
}

// MergeHostList installs the host-provided virtual interrupt list
// (run-call argument, Fig. 5 step 1) into free, non-hidden slots. The
// RMM-owned hidden slots are untouched; host entries that no longer fit
// are reported back so the caller can retry after the guest drains.
func (l *ListRegs) MergeHostList(host []ListReg) (rejected []ListReg) {
	// Clear previous non-hidden slots: the host list is authoritative
	// for the interrupts it manages.
	for i, r := range l.regs {
		if r.Valid() && !r.Hidden {
			l.regs[i] = ListReg{}
		}
	}
	for _, hr := range host {
		hr.Hidden = false
		placed := false
		for i, r := range l.regs {
			if !r.Valid() {
				l.regs[i] = hr
				placed = true
				break
			}
		}
		if !placed {
			rejected = append(rejected, hr)
		}
	}
	return rejected
}
