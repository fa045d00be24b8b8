// Package granule models physical-memory ownership for confidential VMs:
// the granule protection table (GPT) through which hardware checks every
// access against the owning physical address space, and the delegation
// protocol by which the untrusted host donates memory to realm world.
//
// This is the Arm CCA view (RME granule protection checks, RMM granule
// states); Intel TDX's PAMT and AMD's RMP play the same role (§2.1).
package granule

import (
	"errors"
	"fmt"

	"coregap/internal/sim"
)

// Delegation-protocol counters: every successful state transition on
// the table, by operation. These are the paper's RMI granule churn made
// visible per trial.
var (
	cDelegate   = sim.DefineCounter("granule.delegates")
	cUndelegate = sim.DefineCounter("granule.undelegates")
	cClaim      = sim.DefineCounter("granule.claims")
	cRelease    = sim.DefineCounter("granule.releases")
)

// Size is the granule size in bytes (4 KiB, as on Arm).
const Size = 4096

// PA is a physical address.
type PA uint64

// Index reports the granule index containing pa.
func (pa PA) Index() uint64 { return uint64(pa) / Size }

// Aligned reports whether pa is granule-aligned.
func (pa PA) Aligned() bool { return uint64(pa)%Size == 0 }

// IPA is an intermediate physical address (guest physical).
type IPA uint64

// Aligned reports whether the IPA is granule-aligned.
func (ipa IPA) Aligned() bool { return uint64(ipa)%Size == 0 }

// RealmID identifies a realm (confidential VM) as the owner of granules.
// Zero means "no realm".
type RealmID uint32

// State is the lifecycle state of one granule, following the RMM
// specification's granule state machine.
type State uint8

// Granule states.
const (
	// Undelegated: normal-world memory, accessible to the host.
	Undelegated State = iota
	// Delegated: donated to realm world but not yet used; contents wiped.
	Delegated
	// RD: holds a realm descriptor.
	RD
	// REC: holds a realm execution context (vCPU state).
	REC
	// RTT: holds a stage-2 translation table.
	RTT
	// Data: mapped as protected realm data.
	Data
)

var stateNames = [...]string{"undelegated", "delegated", "rd", "rec", "rtt", "data"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Errors returned by the table operations. They model the RMI error codes
// the real RMM returns to a misbehaving (or malicious) host.
var (
	ErrUnaligned      = errors.New("granule: address not granule-aligned")
	ErrOutOfRange     = errors.New("granule: address outside physical memory")
	ErrBadState       = errors.New("granule: granule in wrong state for operation")
	ErrWrongOwner     = errors.New("granule: granule owned by another realm")
	ErrNotScrubbed    = errors.New("granule: undelegate of unscrubbed granule")
	ErrDoubleDelegate = errors.New("granule: already delegated")
)

type granule struct {
	state State
	owner RealmID
	dirty bool // held secret contents since last scrub
}

// Table is the granule protection table for one machine's physical memory.
type Table struct {
	granules []granule
	counts   [6]uint64
	// hi is one past the highest granule index ever mutated. The table
	// covers whole-machine physical memory (millions of granules), but a
	// single run touches a tiny bump-allocated prefix plus a few stray
	// addresses; Reset scrubs only [0, hi) instead of re-zeroing — or,
	// worse, reallocating — the entire backing array.
	hi uint64
	// eng, when bound, receives counters and trace events for state
	// transitions. The table stays usable unbound (tests build bare
	// tables); note() is then a nil check.
	eng *sim.Engine
}

// NewTable returns a table covering size bytes of physical memory, all
// initially undelegated (host-owned).
func NewTable(size uint64) *Table {
	n := size / Size
	t := &Table{granules: make([]granule, n)}
	t.counts[Undelegated] = n
	return t
}

// Reset returns every granule to Undelegated for a table covering size
// bytes, reusing the backing array when the size is unchanged (the
// common pooled-context case) so a reset table is observationally
// identical to NewTable(size) without the multi-megabyte allocation.
func (t *Table) Reset(size uint64) {
	n := size / Size
	if n != uint64(len(t.granules)) {
		t.granules = make([]granule, n)
	} else if t.hi > 0 {
		clear(t.granules[:t.hi])
	}
	t.hi = 0
	t.counts = [6]uint64{}
	t.counts[Undelegated] = n
}

// Bind attaches the engine whose counters and tracer receive this
// table's state transitions, returning t for construction chaining.
func (t *Table) Bind(eng *sim.Engine) *Table {
	t.eng = eng
	return t
}

// note records a successful transition in the bound engine's counters
// and trace.
func (t *Table) note(id sim.CounterID, name string, pa PA) {
	if t.eng == nil {
		return
	}
	t.eng.Count(id)
	t.eng.Trace().Emit(sim.TCGranule, name, sim.LaneGlobal, int64(pa))
}

// mark records that the granule at pa was mutated, widening the range
// Reset must scrub. Callers pass an already-validated pa.
func (t *Table) mark(pa PA) {
	if idx := pa.Index(); idx >= t.hi {
		t.hi = idx + 1
	}
}

// Granules reports the total granule count.
func (t *Table) Granules() uint64 { return uint64(len(t.granules)) }

// CountIn reports how many granules are in state s.
func (t *Table) CountIn(s State) uint64 { return t.counts[s] }

func (t *Table) lookup(pa PA) (*granule, error) {
	if !pa.Aligned() {
		return nil, ErrUnaligned
	}
	idx := pa.Index()
	if idx >= uint64(len(t.granules)) {
		return nil, ErrOutOfRange
	}
	return &t.granules[idx], nil
}

// State reports the state of the granule at pa.
func (t *Table) State(pa PA) (State, error) {
	g, err := t.lookup(pa)
	if err != nil {
		return Undelegated, err
	}
	return g.state, nil
}

// Owner reports the realm owning the granule at pa (0 when none).
func (t *Table) Owner(pa PA) (RealmID, error) {
	g, err := t.lookup(pa)
	if err != nil {
		return 0, err
	}
	return g.owner, nil
}

func (t *Table) transition(g *granule, to State) {
	t.counts[g.state]--
	g.state = to
	t.counts[to]++
}

// Delegate moves an undelegated granule into realm world
// (RMI_GRANULE_DELEGATE). The granule is scrubbed on entry.
func (t *Table) Delegate(pa PA) error {
	g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	if g.state == Delegated {
		return ErrDoubleDelegate
	}
	if g.state != Undelegated {
		return ErrBadState
	}
	t.transition(g, Delegated)
	g.dirty = false
	t.mark(pa)
	t.note(cDelegate, "granule.delegate", pa)
	return nil
}

// Undelegate returns a delegated granule to the host
// (RMI_GRANULE_UNDELEGATE). A granule that held realm contents must have
// been scrubbed first; returning secret-bearing memory to the host would
// be an architectural leak.
func (t *Table) Undelegate(pa PA) error {
	g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	if g.state != Delegated {
		return ErrBadState
	}
	if g.dirty {
		return ErrNotScrubbed
	}
	t.transition(g, Undelegated)
	t.mark(pa)
	t.note(cUndelegate, "granule.undelegate", pa)
	return nil
}

// Claim converts a delegated granule into one of the realm-internal
// states (RD, REC, RTT, Data) on behalf of owner.
func (t *Table) Claim(pa PA, to State, owner RealmID) error {
	if to != RD && to != REC && to != RTT && to != Data {
		return ErrBadState
	}
	g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	if g.state != Delegated {
		return ErrBadState
	}
	t.transition(g, to)
	g.owner = owner
	g.dirty = true
	t.mark(pa)
	t.note(cClaim, "granule.claim", pa)
	return nil
}

// Release scrubs a realm-internal granule back to Delegated. Only the
// owning realm's teardown path may release it.
func (t *Table) Release(pa PA, owner RealmID) error {
	g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	switch g.state {
	case RD, REC, RTT, Data:
	default:
		return ErrBadState
	}
	if g.owner != owner {
		return ErrWrongOwner
	}
	t.transition(g, Delegated)
	g.owner = 0
	g.dirty = false // release implies scrub
	t.mark(pa)
	t.note(cRelease, "granule.release", pa)
	return nil
}

// HostAccessible reports whether normal-world software may access pa.
// This is the granule protection check performed (by hardware) on every
// host access; a false return models an instruction-level fault.
func (t *Table) HostAccessible(pa PA) bool {
	g, err := t.lookup(PA(uint64(pa) / Size * Size))
	if err != nil {
		return false
	}
	return g.state == Undelegated
}

// RealmAccessible reports whether realm r may access pa through its
// stage-2 tables (the granule must be realm-owned by r, or shared
// normal-world memory which the architecture maps as untrusted-shared).
func (t *Table) RealmAccessible(pa PA, r RealmID) bool {
	g, err := t.lookup(PA(uint64(pa) / Size * Size))
	if err != nil {
		return false
	}
	switch g.state {
	case Data:
		return g.owner == r
	case Undelegated:
		return true // shared (non-confidential) memory
	default:
		return false
	}
}
