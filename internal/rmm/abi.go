package rmm

import (
	"errors"

	"coregap/internal/granule"
	"coregap/internal/hw"
	"coregap/internal/sim"
	"coregap/internal/smc"
)

// cSMCCall counts RMI calls crossing the host→monitor SMC boundary —
// in the core-gapped design these are exactly the calls proxied over
// the cross-core transport.
var cSMCCall = sim.DefineCounter("rmm.smc_calls")

// ABI version reported by RMI_VERSION: major 1, minor 0, plus the
// core-gapping feature bit in the features register.
const (
	abiVersion      = 1 << 16 // v1.0
	featureCoreGap  = 1 << 0
	featureDelegTim = 1 << 1
	featureDelegIPI = 1 << 2
)

func errStatus(err error) smc.Status {
	switch {
	case err == nil:
		return smc.StatusSuccess
	case errors.Is(err, ErrBadRealm), errors.Is(err, ErrRealmState), errors.Is(err, ErrNotActive):
		return smc.StatusErrorRealm
	case errors.Is(err, ErrBadRec):
		return smc.StatusErrorRec
	case errors.Is(err, ErrBoundElsewhere), errors.Is(err, ErrCoreInUse),
		errors.Is(err, ErrCoreNotDedicated), errors.Is(err, ErrCoreBusy):
		return smc.StatusErrorCoreGap
	case errors.Is(err, granule.ErrBadState), errors.Is(err, granule.ErrDoubleDelegate),
		errors.Is(err, granule.ErrNotScrubbed), errors.Is(err, granule.ErrWrongOwner):
		return smc.StatusErrorInUse
	case errors.Is(err, granule.ErrUnaligned), errors.Is(err, granule.ErrOutOfRange),
		errors.Is(err, granule.ErrLevel):
		return smc.StatusErrorInput
	case errors.Is(err, granule.ErrNoTable), errors.Is(err, granule.ErrTableExists),
		errors.Is(err, granule.ErrEntryState), errors.Is(err, granule.ErrNotEmpty):
		return smc.StatusErrorRtt
	default:
		return smc.StatusErrorInput
	}
}

// Handle is the monitor's one host-facing entry, the RMI: it decodes an
// SMC call, resolves the opaque handles the ABI uses (a realm is named by
// its RD granule's PA, a vCPU by its REC granule's PA, exactly as in the
// RMM specification), validates, and runs the command. The host never
// holds Go pointers into the monitor — everything crosses the boundary
// as register values, so a forged or stale handle is an error status,
// never a dereference.
func (m *Monitor) Handle(c smc.Call) smc.Result {
	eng := m.mach.Engine()
	eng.Count(cSMCCall)
	// FID.String is a map of static names: no per-call formatting for
	// any known RMI function.
	eng.Trace().Emit(sim.TCProxy, c.FID.String(), sim.LaneGlobal, int64(uint32(c.FID)))
	// Calls that name a realm take its RD handle, and calls that name a
	// vCPU its REC handle, in the first register.
	var r *Realm
	var rec *REC
	switch c.FID {
	case smc.RMIRealmActivate, smc.RMIRealmDestroy, smc.RMIRecCreate,
		smc.RMIRttCreate, smc.RMIRttDestroy, smc.RMIRttMapUnprotected,
		smc.RMIDataCreate, smc.RMIDataDestroy:
		if r = m.realms[granule.PA(c.Args[0])]; r == nil {
			return smc.Err(smc.StatusErrorRealm)
		}
	case smc.RMIRecDestroy, smc.RMIRecEnter, smc.RMICoreRebind:
		if rec = m.recs[granule.PA(c.Args[0])]; rec == nil {
			return smc.Err(smc.StatusErrorRec)
		}
	}

	switch c.FID {
	case smc.RMIVersion:
		return smc.Ok1(abiVersion)

	case smc.RMIFeatures:
		var f uint64
		if m.cfg.CoreGapped {
			f |= featureCoreGap
		}
		if m.cfg.DelegateTimer {
			f |= featureDelegTim
		}
		if m.cfg.DelegateVIPI {
			f |= featureDelegIPI
		}
		return smc.Ok1(f)

	case smc.RMIGranuleDelegate:
		return statusOnly(m.gpt.Delegate(granule.PA(c.Args[0])))

	case smc.RMIGranuleUndelegate:
		return statusOnly(m.gpt.Undelegate(granule.PA(c.Args[0])))

	case smc.RMIRealmCreate:
		// args: rd PA, rtt-root PA, vcpus, ipa bits, flags
		params := RealmParams{
			VCPUs:   int(c.Args[2]),
			IPASize: uint(c.Args[3]),
			Flags:   c.Args[4],
		}
		r, err := m.realmCreate(params, granule.PA(c.Args[0]), granule.PA(c.Args[1]))
		if err != nil {
			return statusOnly(err)
		}
		return smc.Ok1(uint64(r.ID()))

	case smc.RMIRealmActivate:
		return statusOnly(m.activate(r))

	case smc.RMIRealmDestroy:
		return statusOnly(m.destroy(r))

	case smc.RMIRecCreate:
		rec, err := m.recCreate(r, granule.PA(c.Args[1]))
		if err != nil {
			return statusOnly(err)
		}
		return smc.Ok1(uint64(rec.Index()))

	case smc.RMIRecDestroy:
		return statusOnly(m.recDestroy(rec))

	case smc.RMIRecEnter:
		// args: rec PA, core id. The actual guest execution is driven by
		// the orchestrator; at the ABI level RecEnter is the binding
		// check plus the entry accounting.
		core, ok := m.coreArg(c.Args[1])
		if !ok {
			return smc.Err(smc.StatusErrorInput)
		}
		if err := m.CheckEnter(rec, core); err != nil {
			return statusOnly(err)
		}
		m.NoteEnter(rec)
		return smc.Ok()

	case smc.RMIRttCreate:
		return statusOnly(r.rtt.CreateTable(granule.IPA(c.Args[1]), int(c.Args[2]), granule.PA(c.Args[3])))

	case smc.RMIRttDestroy:
		return statusOnly(r.rtt.DestroyTable(granule.IPA(c.Args[1]), int(c.Args[2])))

	case smc.RMIDataCreate:
		return statusOnly(m.dataCreate(r, granule.IPA(c.Args[1]), granule.PA(c.Args[2])))

	case smc.RMIDataDestroy:
		return statusOnly(r.rtt.Unmap(granule.IPA(c.Args[1])))

	case smc.RMIRttMapUnprotected:
		return statusOnly(r.rtt.MapShared(granule.IPA(c.Args[1]), granule.PA(c.Args[2])))

	case smc.RMICoreDedicate:
		core, ok := m.coreArg(c.Args[0])
		if !ok {
			return smc.Err(smc.StatusErrorInput)
		}
		m.dedicateCore(core)
		return smc.Ok()

	case smc.RMICoreReclaim:
		core, ok := m.coreArg(c.Args[0])
		if !ok {
			return smc.Err(smc.StatusErrorInput)
		}
		return statusOnly(m.reclaimCore(core))

	case smc.RMICoreRebind:
		// args: rec PA, target core id.
		core, ok := m.coreArg(c.Args[1])
		if !ok {
			return smc.Err(smc.StatusErrorInput)
		}
		return statusOnly(m.rebindRec(rec, core))

	default:
		return smc.Err(smc.StatusErrorUnknown)
	}
}

// statusOnly is the bare result carrying err's status (success on nil).
func statusOnly(err error) smc.Result { return smc.Err(errStatus(err)) }

// coreArg decodes a core-id register, rejecting ids the machine lacks.
func (m *Monitor) coreArg(v uint64) (hw.CoreID, bool) {
	if v >= uint64(m.mach.NumCores()) {
		return hw.NoCore, false
	}
	return hw.CoreID(v), true
}
