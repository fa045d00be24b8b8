package granule

import (
	"errors"
	"fmt"
)

// Stage-2 translation for realms: a four-level realm translation table
// (RTT) mapping guest IPAs to host PAs. The host *requests* updates via
// RMI calls; the monitor validates and applies them, so a malicious host
// can never alias two realms onto one granule or remap a page without the
// architecture noticing (§2.1).

// RTT geometry: each level resolves 9 bits of IPA; level 3 entries map
// 4 KiB granules.
const (
	rttLevels      = 4
	rttEntriesBits = 9
	rttEntries     = 1 << rttEntriesBits
)

// EntryState is the state of one level-3 RTT entry.
type EntryState uint8

// RTT entry states, per the RMM specification.
const (
	// Unassigned: no physical memory behind this IPA yet.
	Unassigned EntryState = iota
	// Assigned: maps a protected Data granule.
	Assigned
	// AssignedNS: maps shared, non-confidential memory.
	AssignedNS
	// Destroyed: was assigned, then destroyed; cannot be silently reused
	// (prevents replay of stale mappings by the host).
	Destroyed
)

var entryStateNames = [...]string{"unassigned", "assigned", "assigned-ns", "destroyed"}

func (s EntryState) String() string {
	if int(s) < len(entryStateNames) {
		return entryStateNames[s]
	}
	return fmt.Sprintf("entrystate(%d)", uint8(s))
}

// RTT errors.
var (
	ErrNoTable     = errors.New("rtt: intermediate table missing (RTT fault)")
	ErrTableExists = errors.New("rtt: table already present")
	ErrEntryState  = errors.New("rtt: entry in wrong state")
	ErrLevel       = errors.New("rtt: invalid level")
	ErrNotEmpty    = errors.New("rtt: table still has live entries")
)

type rttNode struct {
	tablePA  PA // granule backing this table
	children [rttEntries]*rttNode
	leaves   [rttEntries]rttLeaf
	live     int // live children or non-unassigned leaves
}

type rttLeaf struct {
	state EntryState
	pa    PA
}

// Tree is one realm's stage-2 translation tree.
type Tree struct {
	realm RealmID
	gpt   *Table
	root  *rttNode
	// mapped counts live Assigned leaves for accounting.
	mapped uint64
}

// NewTree returns a stage-2 tree for realm r whose table granules are
// validated against gpt. rootPA must already be Claimed as RTT state.
func NewTree(r RealmID, gpt *Table, rootPA PA) (*Tree, error) {
	if st, err := gpt.State(rootPA); err != nil {
		return nil, err
	} else if st != RTT {
		return nil, ErrBadState
	}
	return &Tree{realm: r, gpt: gpt, root: &rttNode{tablePA: rootPA}}, nil
}

// Mapped reports the number of protected granules currently mapped.
func (t *Tree) Mapped() uint64 { return t.mapped }

func ipaIndex(ipa IPA, level int) int {
	shift := uint(12 + (rttLevels-1-level)*rttEntriesBits)
	return int((uint64(ipa) >> shift) & (rttEntries - 1))
}

// walk descends to the node at the given level (0-based; level 3 holds
// leaves), returning nil when an intermediate table is missing.
func (t *Tree) walk(ipa IPA, level int) *rttNode {
	n := t.root
	for l := 0; l < level; l++ {
		n = n.children[ipaIndex(ipa, l)]
		if n == nil {
			return nil
		}
	}
	return n
}

// CreateTable installs an intermediate table (RMI_RTT_CREATE) for the
// region containing ipa at the given level (1..3), backed by tablePA
// which must be in Delegated state; it is claimed as RTT.
func (t *Tree) CreateTable(ipa IPA, level int, tablePA PA) error {
	if level < 1 || level >= rttLevels {
		return ErrLevel
	}
	parent := t.walk(ipa, level-1)
	if parent == nil {
		return ErrNoTable
	}
	idx := ipaIndex(ipa, level-1)
	if parent.children[idx] != nil {
		return ErrTableExists
	}
	if err := t.gpt.Claim(tablePA, RTT, t.realm); err != nil {
		return err
	}
	parent.children[idx] = &rttNode{tablePA: tablePA}
	parent.live++
	return nil
}

// DestroyTable removes an empty intermediate table (RMI_RTT_DESTROY) and
// releases its granule back to Delegated.
func (t *Tree) DestroyTable(ipa IPA, level int) error {
	if level < 1 || level >= rttLevels {
		return ErrLevel
	}
	parent := t.walk(ipa, level-1)
	if parent == nil {
		return ErrNoTable
	}
	idx := ipaIndex(ipa, level-1)
	n := parent.children[idx]
	if n == nil {
		return ErrNoTable
	}
	if n.live != 0 {
		return ErrNotEmpty
	}
	if err := t.gpt.Release(n.tablePA, t.realm); err != nil {
		return err
	}
	parent.children[idx] = nil
	parent.live--
	return nil
}

func (t *Tree) leafNode(ipa IPA) (*rttNode, int, error) {
	if !ipa.Aligned() {
		return nil, 0, ErrUnaligned
	}
	n := t.walk(ipa, rttLevels-1)
	if n == nil {
		return nil, 0, ErrNoTable
	}
	return n, ipaIndex(ipa, rttLevels-1), nil
}

// MapProtected maps ipa to the protected granule at pa
// (RMI_DATA_CREATE). pa must be Delegated; it is claimed as Data.
func (t *Tree) MapProtected(ipa IPA, pa PA) error {
	n, idx, err := t.leafNode(ipa)
	if err != nil {
		return err
	}
	if n.leaves[idx].state != Unassigned {
		return ErrEntryState
	}
	if err := t.gpt.Claim(pa, Data, t.realm); err != nil {
		return err
	}
	n.leaves[idx] = rttLeaf{state: Assigned, pa: pa}
	n.live++
	t.mapped++
	return nil
}

// MapShared maps ipa to untrusted shared memory at pa (unprotected IPA
// space). The granule must remain Undelegated (host-owned).
func (t *Tree) MapShared(ipa IPA, pa PA) error {
	n, idx, err := t.leafNode(ipa)
	if err != nil {
		return err
	}
	if n.leaves[idx].state != Unassigned {
		return ErrEntryState
	}
	if st, err := t.gpt.State(pa); err != nil {
		return err
	} else if st != Undelegated {
		return ErrBadState
	}
	n.leaves[idx] = rttLeaf{state: AssignedNS, pa: pa}
	n.live++
	return nil
}

// Unmap destroys the mapping at ipa (RMI_DATA_DESTROY). Protected
// granules are scrubbed and released to Delegated; the entry moves to
// Destroyed so the host cannot replay a stale mapping.
func (t *Tree) Unmap(ipa IPA) error {
	n, idx, err := t.leafNode(ipa)
	if err != nil {
		return err
	}
	switch n.leaves[idx].state {
	case Assigned:
		if err := t.gpt.Release(n.leaves[idx].pa, t.realm); err != nil {
			return err
		}
		t.mapped--
	case AssignedNS:
	default:
		return ErrEntryState
	}
	// Destroyed is a homogeneous (foldable) state in the RMM spec: it
	// blocks re-mapping of this IPA but does not keep its table live.
	n.leaves[idx] = rttLeaf{state: Destroyed}
	n.live--
	return nil
}

// Translate performs the stage-2 walk for a realm access, returning the
// PA and whether the target is protected memory. A missing table or
// unassigned/destroyed entry is an RTT fault the host must resolve.
func (t *Tree) Translate(ipa IPA) (pa PA, protected bool, err error) {
	n, idx, err := t.leafNode(IPA(uint64(ipa) / Size * Size))
	if err != nil {
		return 0, false, err
	}
	leaf := n.leaves[idx]
	switch leaf.state {
	case Assigned:
		return leaf.pa + PA(uint64(ipa)%Size), true, nil
	case AssignedNS:
		return leaf.pa + PA(uint64(ipa)%Size), false, nil
	default:
		return 0, false, ErrEntryState
	}
}

// EntryStateAt reports the leaf state at ipa (ErrNoTable when tables are
// missing on the walk).
func (t *Tree) EntryStateAt(ipa IPA) (EntryState, error) {
	n, idx, err := t.leafNode(IPA(uint64(ipa) / Size * Size))
	if err != nil {
		return Unassigned, err
	}
	return n.leaves[idx].state, nil
}
