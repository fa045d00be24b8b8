package rmm

import (
	"coregap/internal/hw"
	"coregap/internal/uarch"
)

// This file implements the monitor's core-gapping extensions (§4.2): the
// dedicated-core registry and the vCPU-to-core binding policy. The two
// essential properties from §3:
//
//	(a) all instructions of a CVM vCPU execute on the same host core;
//	(b) from first to last instruction, only guest-trusted code runs
//	    on that core.
//
// Property (a) is CheckEnter; property (b) follows because a dedicated
// core's interrupt handler is the monitor's and reclaimCore refuses to
// return a core with live bindings.

// dedicateCore registers a core the host has hotplugged out and handed to
// realm world. Called from the host's modified hotplug path.
func (m *Monitor) dedicateCore(id hw.CoreID) {
	m.dedicated[id] = true
	m.count(cCoreDedicate)
}

// IsDedicated reports whether the monitor controls the core.
func (m *Monitor) IsDedicated(id hw.CoreID) bool { return m.dedicated[id] }

// DedicatedCount reports how many cores the monitor controls.
func (m *Monitor) DedicatedCount() int { return len(m.dedicated) }

// reclaimCore returns a core to the host. It fails while any live REC is
// bound to the core — the host cannot repossess a CVM's core before
// destroying the CVM (§4.2).
func (m *Monitor) reclaimCore(id hw.CoreID) error {
	if !m.dedicated[id] {
		return ErrCoreNotDedicated
	}
	if rec, ok := m.bindings[id]; ok && rec.state != RecDestroyed {
		return ErrCoreBusy
	}
	delete(m.dedicated, id)
	delete(m.bindings, id)
	m.count(cCoreReclaim)
	return nil
}

// CheckEnter validates a host request to run rec on core, binding on
// first entry. Under core gapping it enforces:
//
//   - the realm is active and the REC live;
//   - the core has been dedicated to realm world;
//   - the core is not bound to any other vCPU (of this or any realm);
//   - the REC is not bound to a different core.
//
// Without core gapping (baseline CCA) only the lifecycle checks apply:
// the host may schedule vCPUs wherever it likes, which is exactly the
// attack surface the paper closes.
func (m *Monitor) CheckEnter(rec *REC, core hw.CoreID) error {
	if rec.state == RecDestroyed {
		return ErrBadRec
	}
	if rec.realm.state != RealmActive {
		return ErrNotActive
	}
	if !m.cfg.CoreGapped {
		return nil
	}
	if !m.dedicated[core] {
		return ErrCoreNotDedicated
	}
	if bound, ok := m.bindings[core]; ok && bound != rec {
		return ErrCoreInUse
	}
	if rec.bound != hw.NoCore && rec.bound != core {
		return ErrBoundElsewhere
	}
	if rec.bound == hw.NoCore {
		rec.bound = core
		m.bindings[core] = rec
		m.count(cCoreBind)
	}
	return nil
}

// NoteEnter records a successful vCPU entry.
func (m *Monitor) NoteEnter(rec *REC) {
	rec.enters++
	rec.state = RecRunning
	m.count(cRECEnter)
}

// NoteExit records a vCPU exit that reached the host.
func (m *Monitor) NoteExit(rec *REC) {
	rec.exits++
	if rec.state == RecRunning {
		rec.state = RecReady
	}
	m.count(cRECExit)
}

// BoundRec reports the REC bound to a core (nil when none).
func (m *Monitor) BoundRec(core hw.CoreID) *REC { return m.bindings[core] }

// rebindRec migrates a vCPU's core binding to another dedicated core —
// the coarse-timescale rebinding §3 defers to future work, implemented in
// the monitor so the host can request but never force it. The security
// property (b) of §3 is preserved: the old core's microarchitectural
// state is wiped by the monitor before the binding is released, so
// whatever runs there next (another CVM after reclaim, or the host)
// finds no residue.
func (m *Monitor) rebindRec(rec *REC, to hw.CoreID) error {
	if !m.cfg.CoreGapped {
		return ErrCoreNotDedicated
	}
	if rec.state == RecDestroyed {
		return ErrBadRec
	}
	if !m.dedicated[to] {
		return ErrCoreNotDedicated
	}
	if bound, ok := m.bindings[to]; ok && bound != rec {
		return ErrCoreInUse
	}
	old := rec.bound
	if old == to {
		return nil
	}
	if old != hw.NoCore {
		m.mach.Core(old).FlushAll(uarch.DefaultFlushCosts())
		delete(m.bindings, old)
	}
	rec.bound = to
	m.bindings[to] = rec
	m.count(cCoreRebind)
	return nil
}
