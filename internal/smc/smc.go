// Package smc models the secure monitor call ABI through which the host
// reaches the security monitor (SMCCC [7] in the paper): the realm
// management interface (RMI). Function identifiers and status codes
// follow the RMM specification's conventions; the core-gapping prototype
// explicitly does NOT change this ABI (§4.1: "We did not change the APIs
// that the RMM exposes to either host or guests"), it only changes the
// transport (same-core SMC vs cross-core RPC), which is why unmodified
// guests and largely unmodified hosts keep working.
package smc

import "fmt"

// FID is an SMC function identifier (fast call, 64-bit convention,
// standard secure service range for RMI; the core-gapping additions sit
// in the vendor-specific range).
type FID uint32

// RMI function IDs (host → monitor).
const (
	RMIVersion           FID = 0xC4000150
	RMIGranuleDelegate   FID = 0xC4000151
	RMIGranuleUndelegate FID = 0xC4000152
	RMIDataCreate        FID = 0xC4000153
	RMIDataCreateUnknown FID = 0xC4000154
	RMIDataDestroy       FID = 0xC4000155
	RMIRealmActivate     FID = 0xC4000157
	RMIRealmCreate       FID = 0xC4000158
	RMIRealmDestroy      FID = 0xC4000159
	RMIRecCreate         FID = 0xC400015A
	RMIRecDestroy        FID = 0xC400015B
	RMIRecEnter          FID = 0xC400015C
	RMIRttCreate         FID = 0xC400015D
	RMIRttDestroy        FID = 0xC400015E
	RMIRttMapUnprotected FID = 0xC400015F
	RMIFeatures          FID = 0xC4000165

	// Core-gapping extensions (vendor range): the host's hotplug path
	// hands a core to the monitor; the planner reclaims it after the
	// CVM is destroyed (§4.2), and may ask the monitor to move a vCPU's
	// binding to another dedicated core (§3's rebinding).
	RMICoreDedicate FID = 0xC4000170
	RMICoreReclaim  FID = 0xC4000171
	RMICoreRebind   FID = 0xC4000172
)

func (f FID) String() string {
	if name, ok := fidNames[f]; ok {
		return name
	}
	return fmt.Sprintf("FID(%#x)", uint32(f))
}

var fidNames = map[FID]string{
	RMIVersion: "RMI_VERSION", RMIGranuleDelegate: "RMI_GRANULE_DELEGATE",
	RMIGranuleUndelegate: "RMI_GRANULE_UNDELEGATE", RMIDataCreate: "RMI_DATA_CREATE",
	RMIDataCreateUnknown: "RMI_DATA_CREATE_UNKNOWN", RMIDataDestroy: "RMI_DATA_DESTROY",
	RMIRealmActivate: "RMI_REALM_ACTIVATE", RMIRealmCreate: "RMI_REALM_CREATE",
	RMIRealmDestroy: "RMI_REALM_DESTROY", RMIRecCreate: "RMI_REC_CREATE",
	RMIRecDestroy: "RMI_REC_DESTROY", RMIRecEnter: "RMI_REC_ENTER",
	RMIRttCreate: "RMI_RTT_CREATE", RMIRttDestroy: "RMI_RTT_DESTROY",
	RMIRttMapUnprotected: "RMI_RTT_MAP_UNPROTECTED", RMIFeatures: "RMI_FEATURES",
	RMICoreDedicate: "RMI_COREGAP_DEDICATE", RMICoreReclaim: "RMI_COREGAP_RECLAIM",
	RMICoreRebind: "RMI_COREGAP_REBIND",
}

// Status is an RMI return code.
type Status uint64

// Status codes, mirroring the specification's error classes.
const (
	StatusSuccess Status = iota
	StatusErrorInput
	StatusErrorRealm
	StatusErrorRec
	StatusErrorRtt
	StatusErrorInUse
	StatusErrorCoreGap // core-gapping policy violation (binding/dedication)
	StatusErrorUnknown
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "RMI_SUCCESS"
	case StatusErrorInput:
		return "RMI_ERROR_INPUT"
	case StatusErrorRealm:
		return "RMI_ERROR_REALM"
	case StatusErrorRec:
		return "RMI_ERROR_REC"
	case StatusErrorRtt:
		return "RMI_ERROR_RTT"
	case StatusErrorInUse:
		return "RMI_ERROR_IN_USE"
	case StatusErrorCoreGap:
		return "RMI_ERROR_COREGAP"
	default:
		return "RMI_ERROR_UNKNOWN"
	}
}

// Call is one SMC invocation: a function ID plus up to six register
// arguments, as in the SMC64 calling convention.
type Call struct {
	FID  FID
	Args [6]uint64
}

// Result is the SMC return: a status plus up to three result registers.
type Result struct {
	Status Status
	Vals   [3]uint64
}

// Ok is the bare success result.
func Ok() Result { return Result{Status: StatusSuccess} }

// Ok1 is success with one result register.
func Ok1(v uint64) Result { return Result{Status: StatusSuccess, Vals: [3]uint64{v}} }

// Err is a bare error result.
func Err(s Status) Result { return Result{Status: s} }
