// Package rmm implements the security monitor (Arm CCA's realm management
// monitor; TDX module and CoVE TSM are equivalents — Table 1): realm and
// REC (vCPU context) lifecycle, RMI command validation, stage-2 and
// granule bookkeeping, attestation, and the paper's core-gapping
// extensions (§4.2):
//
//   - a binding of CVM vCPUs to physical cores, enforced on every entry;
//   - dedicated-core accounting: cores the host has hotplugged out and
//     handed to the monitor, which never return to the host while their
//     CVM lives;
//   - delegated interrupt management (virtual timer and virtual IPIs
//     emulated in the monitor, §4.4).
//
// The host reaches the monitor only through Handle, the RMI's SMC entry,
// with register-valued handles. Guest execution itself is driven by the
// core-gapping orchestrator (package core), whose dedicated-core entry
// path consults the monitor for every validation the real RMM would
// perform (CheckEnter, NoteEnter, NoteExit).
package rmm

import (
	"errors"
	"fmt"
	"strconv"

	"coregap/internal/attest"
	"coregap/internal/granule"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/uarch"
)

// Version is the modelled RMM version: the reference implementation the
// prototype modifies, plus the core-gapping patch level.
const Version = "rmm-0.3.0+coregap1"

// RMI error codes, mirroring the specification's failure classes.
var (
	ErrBadRealm         = errors.New("rmi: unknown or destroyed realm")
	ErrBadRec           = errors.New("rmi: unknown or destroyed rec")
	ErrRealmState       = errors.New("rmi: realm in wrong state")
	ErrBoundElsewhere   = errors.New("rmi: vcpu bound to a different core")
	ErrCoreInUse        = errors.New("rmi: core already bound to another vcpu")
	ErrCoreNotDedicated = errors.New("rmi: core not dedicated to realm world")
	ErrCoreBusy         = errors.New("rmi: dedicated core still has live bindings")
	ErrNotActive        = errors.New("rmi: realm not activated")
)

// RealmState is the realm lifecycle state.
type RealmState int

// Realm states.
const (
	RealmNew RealmState = iota
	RealmActive
	RealmDestroyed
)

func (s RealmState) String() string {
	switch s {
	case RealmNew:
		return "new"
	case RealmActive:
		return "active"
	default:
		return "destroyed"
	}
}

// RealmParams are host-provided construction parameters, validated and
// then measured into the RIM.
type RealmParams struct {
	VCPUs   int
	IPASize uint // bits of guest physical address space
	Flags   uint64
}

// Realm is one confidential VM.
type Realm struct {
	id     granule.RealmID
	domain uarch.DomainID
	params RealmParams
	state  RealmState
	rd     granule.PA
	rtt    *granule.Tree
	ledger attest.Ledger
	recs   []*REC
}

// ID reports the realm identifier.
func (r *Realm) ID() granule.RealmID { return r.id }

// Domain reports the realm's security domain.
func (r *Realm) Domain() uarch.DomainID { return r.domain }

// State reports the lifecycle state.
func (r *Realm) State() RealmState { return r.state }

// Params reports the construction parameters.
func (r *Realm) Params() RealmParams { return r.params }

// Ledger reports the realm's measurement ledger.
func (r *Realm) Ledger() *attest.Ledger { return &r.ledger }

// RECState is a vCPU context's lifecycle state.
type RECState int

// REC states.
const (
	RecReady RECState = iota
	RecRunning
	RecDestroyed
)

func (s RECState) String() string {
	switch s {
	case RecReady:
		return "ready"
	case RecRunning:
		return "running"
	default:
		return "destroyed"
	}
}

// REC is a realm execution context (one vCPU's saved state).
type REC struct {
	realm *Realm
	idx   int
	state RECState
	pa    granule.PA

	// bound is the physical core this vCPU is bound to under core
	// gapping (NoCore until first entry).
	bound hw.CoreID

	enters uint64
	exits  uint64
}

// Realm reports the owning realm.
func (c *REC) Realm() *Realm { return c.realm }

// Index reports the vCPU index within the realm.
func (c *REC) Index() int { return c.idx }

// State reports the REC state.
func (c *REC) State() RECState { return c.state }

// BoundCore reports the enforced core binding (NoCore when unbound).
func (c *REC) BoundCore() hw.CoreID { return c.bound }

// Enters and Exits report entry/exit counts.
func (c *REC) Enters() uint64 { return c.enters }

// Exits reports how many times this REC exited to the host.
func (c *REC) Exits() uint64 { return c.exits }

// Config selects the monitor's operating policy.
type Config struct {
	// CoreGapped enables vCPU-to-core binding enforcement and the
	// never-return-to-host rule on dedicated cores.
	CoreGapped bool
	// DelegateTimer emulates the guest virtual timer inside the monitor
	// (+150 LoC in the prototype) instead of trapping to the host.
	DelegateTimer bool
	// DelegateVIPI emulates guest IPIs inside the monitor (+70 LoC).
	DelegateVIPI bool
}

// Monitor counters: the realm and REC lifecycle, and the core-gapping
// extensions' core handoffs, bindings and run-call entries.
var (
	cRealmCreate   = sim.DefineCounter("rmm.realm.create")
	cRealmActivate = sim.DefineCounter("rmm.realm.activate")
	cRealmDestroy  = sim.DefineCounter("rmm.realm.destroy")
	cRECCreate     = sim.DefineCounter("rmm.rec.create")
	cRECDestroy    = sim.DefineCounter("rmm.rec.destroy")
	cRECEnter      = sim.DefineCounter("rmm.rec.enter")
	cRECExit       = sim.DefineCounter("rmm.rec.exit")
	cCoreDedicate  = sim.DefineCounter("rmm.core.dedicate")
	cCoreReclaim   = sim.DefineCounter("rmm.core.reclaim")
	cCoreBind      = sim.DefineCounter("rmm.core.bind")
	cCoreRebind    = sim.DefineCounter("rmm.core.rebind")
)

// Monitor is the security monitor instance.
type Monitor struct {
	mach *hw.Machine
	gpt  *granule.Table
	cfg  Config

	// realms and recs are the handle registry: the RMI names a realm by
	// its RD granule's PA and a vCPU by its REC granule's PA.
	realms    map[granule.PA]*Realm
	recs      map[granule.PA]*REC
	nextRealm granule.RealmID
	nextGuest int

	// bindings: physical core -> REC currently bound to it.
	bindings map[hw.CoreID]*REC
	// dedicated: cores handed to the monitor by hotplug.
	dedicated map[hw.CoreID]bool

	signer       *attest.Signer
	platformMeas attest.Measurement
}

// New returns a monitor managing the machine's GPT.
func New(mach *hw.Machine, cfg Config) *Monitor {
	return &Monitor{
		mach:         mach,
		gpt:          mach.GPT(),
		cfg:          cfg,
		realms:       make(map[granule.PA]*Realm),
		recs:         make(map[granule.PA]*REC),
		nextRealm:    1,
		bindings:     make(map[hw.CoreID]*REC),
		dedicated:    make(map[hw.CoreID]bool),
		signer:       attest.NewSigner([]byte("platform-root-key")),
		platformMeas: attest.MeasureBytes([]byte(Version)),
	}
}

// Config reports the monitor's policy.
func (m *Monitor) Config() Config { return m.cfg }

func (m *Monitor) count(id sim.CounterID) { m.mach.Engine().Count(id) }

// Realm resolves an RD handle (nil when unknown or destroyed).
func (m *Monitor) Realm(rd granule.PA) *Realm { return m.realms[rd] }

// Rec resolves a REC handle (nil when unknown or destroyed).
func (m *Monitor) Rec(pa granule.PA) *REC { return m.recs[pa] }

// realmCreate validates parameters, claims the RD granule, and builds the
// realm with an empty stage-2 tree rooted at rttRoot (both PAs must be in
// Delegated state).
func (m *Monitor) realmCreate(params RealmParams, rd, rttRoot granule.PA) (*Realm, error) {
	if params.VCPUs <= 0 || params.VCPUs > m.mach.NumCores() {
		return nil, fmt.Errorf("rmi: invalid vcpu count %d", params.VCPUs)
	}
	id := m.nextRealm
	if err := m.gpt.Claim(rd, granule.RD, id); err != nil {
		return nil, err
	}
	if err := m.gpt.Claim(rttRoot, granule.RTT, id); err != nil {
		m.gpt.Release(rd, id)
		return nil, err
	}
	rtt, err := granule.NewTree(id, m.gpt, rttRoot)
	if err != nil {
		return nil, err
	}
	r := &Realm{
		id:     id,
		domain: uarch.Guest(m.nextGuest),
		params: params,
		rd:     rd,
		rtt:    rtt,
	}
	// The RIM strings are built with strconv into a stack buffer: fmt's
	// printer cache is emptied by every GC, which would make a trial's
	// allocation count depend on when the collector last ran.
	var buf [64]byte
	b := append(buf[:0], "realm vcpus:"...)
	b = strconv.AppendInt(b, int64(params.VCPUs), 10)
	b = append(b, " ipa:"...)
	b = strconv.AppendUint(b, uint64(params.IPASize), 10)
	b = append(b, " flags:"...)
	r.ledger.ExtendRIM(strconv.AppendUint(b, params.Flags, 10))
	m.nextRealm++
	m.nextGuest++
	m.realms[rd] = r
	m.count(cRealmCreate)
	return r, nil
}

// recCreate adds a vCPU context backed by the Delegated granule at pa.
// Creation order is measured (the RIM covers vCPU configuration).
func (m *Monitor) recCreate(r *Realm, pa granule.PA) (*REC, error) {
	if r.state != RealmNew {
		return nil, ErrRealmState
	}
	if len(r.recs) >= r.params.VCPUs {
		return nil, fmt.Errorf("rmi: realm already has %d recs", len(r.recs))
	}
	if err := m.gpt.Claim(pa, granule.REC, r.id); err != nil {
		return nil, err
	}
	rec := &REC{realm: r, idx: len(r.recs), pa: pa, bound: hw.NoCore}
	r.recs = append(r.recs, rec)
	m.recs[pa] = rec
	var buf [32]byte
	r.ledger.ExtendRIM(strconv.AppendInt(append(buf[:0], "rec:"...), int64(rec.idx), 10))
	m.count(cRECCreate)
	return rec, nil
}

// dataCreate maps guest memory: claims the Delegated granule at pa as
// realm data at ipa. Before activation the mapping's IPA is measured:
// the RIM covers what crosses the ABI, and page contents do not.
func (m *Monitor) dataCreate(r *Realm, ipa granule.IPA, pa granule.PA) error {
	if r.state == RealmDestroyed {
		return ErrBadRealm
	}
	if err := r.rtt.MapProtected(ipa, pa); err != nil {
		return err
	}
	if r.state == RealmNew {
		var buf [32]byte
		r.ledger.ExtendRIM(strconv.AppendUint(append(buf[:0], "data ipa:0x"...), uint64(ipa), 16))
	}
	return nil
}

// activate seals the realm's measurements and permits execution.
func (m *Monitor) activate(r *Realm) error {
	if r.state != RealmNew {
		return ErrRealmState
	}
	r.ledger.Seal()
	r.state = RealmActive
	m.count(cRealmActivate)
	return nil
}

// destroy tears the realm down: all RECs are destroyed, bindings
// released, granules scrubbed back to Delegated, and the realm's handles
// retired.
func (m *Monitor) destroy(r *Realm) error {
	if r.state == RealmDestroyed {
		return ErrBadRealm
	}
	for _, rec := range r.recs {
		if rec.state != RecDestroyed {
			m.recDestroy(rec)
		}
	}
	delete(m.realms, r.rd)
	m.gpt.Release(r.rd, r.id)
	r.state = RealmDestroyed
	m.count(cRealmDestroy)
	return nil
}

// recDestroy retires a vCPU context and its handle and releases its core
// binding; the host may reclaim the core once no REC is bound to it
// (§4.2).
func (m *Monitor) recDestroy(rec *REC) error {
	if rec.state == RecDestroyed {
		return ErrBadRec
	}
	if rec.bound != hw.NoCore {
		delete(m.bindings, rec.bound)
		rec.bound = hw.NoCore
	}
	delete(m.recs, rec.pa)
	m.gpt.Release(rec.pa, rec.realm.id)
	rec.state = RecDestroyed
	m.count(cRECDestroy)
	return nil
}

// Token issues the realm's attestation token; the CoreGapped claim lets
// guests require a core-gapping monitor before trusting the platform.
func (m *Monitor) Token(r *Realm, challenge [32]byte) (*attest.Token, error) {
	if r.state != RealmActive {
		return nil, ErrNotActive
	}
	return m.signer.Issue(m.platformMeas, Version, m.cfg.CoreGapped, &r.ledger, challenge)
}

// Verifier returns the signer used to check tokens (stands in for the
// remote attestation service's trust anchor).
func (m *Monitor) Verifier() *attest.Signer { return m.signer }
