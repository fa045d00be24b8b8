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
	owner RealmID
	state State
	dirty bool // held secret contents since last scrub
}

// pageShift sizes the table's pages: 512 granules (4 KiB of table
// entries covering 2 MiB of physical memory) each.
const (
	pageShift = 9
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// page is one lazily allocated run of pageLen consecutive granules.
type page [pageLen]granule

// Table is the granule protection table for one machine's physical memory.
type Table struct {
	// pages covers the whole physical address space, but a page is
	// allocated only when a granule on it is first mutated: a run
	// touches a tiny bump-allocated prefix plus a few stray addresses
	// of millions of granules. An absent page reads as all granules
	// undelegated, unowned and clean.
	pages  []*page
	n      uint64 // granule count
	counts [6]uint64
	// hi is one past the highest granule index ever mutated; Reset
	// scrubs only the resident pages below it and keeps them for reuse.
	hi uint64
	// eng, when bound, receives counters and trace events for state
	// transitions. The table stays usable unbound (tests build bare
	// tables); note() is then a nil check.
	eng *sim.Engine
}

// NewTable returns a table covering size bytes of physical memory, all
// initially undelegated (host-owned).
func NewTable(size uint64) *Table {
	t := &Table{}
	t.Reset(size)
	return t
}

// Reset returns every granule to Undelegated for a table covering size
// bytes, keeping the resident pages when the size is unchanged (the
// common pooled-context case) so a reset table is observationally
// identical to NewTable(size) and allocates nothing.
func (t *Table) Reset(size uint64) {
	n := size / Size
	if pages := (n + pageMask) >> pageShift; pages != uint64(len(t.pages)) {
		t.pages = make([]*page, pages)
	} else {
		for _, p := range t.pages[:(t.hi+pageMask)>>pageShift] {
			if p != nil {
				clear(p[:])
			}
		}
	}
	t.n = n
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

// Granules reports the total granule count.
func (t *Table) Granules() uint64 { return t.n }

// CountIn reports how many granules are in state s.
func (t *Table) CountIn(s State) uint64 { return t.counts[s] }

// lookup validates pa and returns its granule's index and contents; it
// allocates nothing.
func (t *Table) lookup(pa PA) (uint64, granule, error) {
	if !pa.Aligned() {
		return 0, granule{}, ErrUnaligned
	}
	idx := pa.Index()
	if idx >= t.n {
		return 0, granule{}, ErrOutOfRange
	}
	if p := t.pages[idx>>pageShift]; p != nil {
		return idx, p[idx&pageMask], nil
	}
	return idx, granule{}, nil
}

// store writes back g, the granule at a validated index, after a
// transition out of state from: it moves the state counts, allocates the
// granule's page on first use and widens the range Reset must scrub.
func (t *Table) store(idx uint64, from State, g granule) {
	t.counts[from]--
	t.counts[g.state]++
	p := t.pages[idx>>pageShift]
	if p == nil {
		p = new(page)
		t.pages[idx>>pageShift] = p
	}
	p[idx&pageMask] = g
	if idx >= t.hi {
		t.hi = idx + 1
	}
}

// State reports the state of the granule at pa.
func (t *Table) State(pa PA) (State, error) {
	_, g, err := t.lookup(pa)
	if err != nil {
		return Undelegated, err
	}
	return g.state, nil
}

// Owner reports the realm owning the granule at pa (0 when none).
func (t *Table) Owner(pa PA) (RealmID, error) {
	_, g, err := t.lookup(pa)
	if err != nil {
		return 0, err
	}
	return g.owner, nil
}

// Delegate moves an undelegated granule into realm world
// (RMI_GRANULE_DELEGATE). The granule is scrubbed on entry.
func (t *Table) Delegate(pa PA) error {
	idx, g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	if g.state == Delegated {
		return ErrDoubleDelegate
	}
	if g.state != Undelegated {
		return ErrBadState
	}
	g.state, g.dirty = Delegated, false
	t.store(idx, Undelegated, g)
	t.note(cDelegate, "granule.delegate", pa)
	return nil
}

// Undelegate returns a delegated granule to the host
// (RMI_GRANULE_UNDELEGATE). A granule that held realm contents must have
// been scrubbed first; returning secret-bearing memory to the host would
// be an architectural leak.
func (t *Table) Undelegate(pa PA) error {
	idx, g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	if g.state != Delegated {
		return ErrBadState
	}
	if g.dirty {
		return ErrNotScrubbed
	}
	g.state = Undelegated
	t.store(idx, Delegated, g)
	t.note(cUndelegate, "granule.undelegate", pa)
	return nil
}

// Claim converts a delegated granule into one of the realm-internal
// states (RD, REC, RTT, Data) on behalf of owner.
func (t *Table) Claim(pa PA, to State, owner RealmID) error {
	if to != RD && to != REC && to != RTT && to != Data {
		return ErrBadState
	}
	idx, g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	if g.state != Delegated {
		return ErrBadState
	}
	g.state, g.owner, g.dirty = to, owner, true
	t.store(idx, Delegated, g)
	t.note(cClaim, "granule.claim", pa)
	return nil
}

// Release scrubs a realm-internal granule back to Delegated. Only the
// owning realm's teardown path may release it.
func (t *Table) Release(pa PA, owner RealmID) error {
	idx, g, err := t.lookup(pa)
	if err != nil {
		return err
	}
	from := g.state
	switch from {
	case RD, REC, RTT, Data:
	default:
		return ErrBadState
	}
	if g.owner != owner {
		return ErrWrongOwner
	}
	g.state, g.owner, g.dirty = Delegated, 0, false // release implies scrub
	t.store(idx, from, g)
	t.note(cRelease, "granule.release", pa)
	return nil
}

// HostAccessible reports whether normal-world software may access pa.
// This is the granule protection check performed (by hardware) on every
// host access; a false return models an instruction-level fault.
func (t *Table) HostAccessible(pa PA) bool {
	_, g, err := t.lookup(PA(uint64(pa) / Size * Size))
	if err != nil {
		return false
	}
	return g.state == Undelegated
}

// RealmAccessible reports whether realm r may access pa through its
// stage-2 tables (the granule must be realm-owned by r, or shared
// normal-world memory which the architecture maps as untrusted-shared).
func (t *Table) RealmAccessible(pa PA, r RealmID) bool {
	_, g, err := t.lookup(PA(uint64(pa) / Size * Size))
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
