package smc

import "testing"

func TestFIDNames(t *testing.T) {
	cases := map[FID]string{
		RMIVersion:      "RMI_VERSION",
		RMIRecEnter:     "RMI_REC_ENTER",
		RMICoreDedicate: "RMI_COREGAP_DEDICATE",
		RMICoreRebind:   "RMI_COREGAP_REBIND",
	}
	for fid, want := range cases {
		if fid.String() != want {
			t.Errorf("%#x = %q, want %q", uint32(fid), fid.String(), want)
		}
	}
	if FID(0x1234).String() != "FID(0x1234)" {
		t.Error("unknown FID formatting")
	}
}

func TestFIDRanges(t *testing.T) {
	// RMI FIDs live in the standard secure service range; the
	// core-gapping extensions in the vendor slice above it.
	for _, fid := range []FID{RMIVersion, RMIRecEnter, RMIDataCreate, RMIRttCreate} {
		if fid < 0xC4000150 || fid > 0xC400016F {
			t.Errorf("%v outside RMI range", fid)
		}
	}
	for _, fid := range []FID{RMICoreDedicate, RMICoreReclaim, RMICoreRebind} {
		if fid < 0xC4000170 {
			t.Errorf("%v collides with the spec range", fid)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusSuccess:      "RMI_SUCCESS",
		StatusErrorInput:   "RMI_ERROR_INPUT",
		StatusErrorRealm:   "RMI_ERROR_REALM",
		StatusErrorRec:     "RMI_ERROR_REC",
		StatusErrorRtt:     "RMI_ERROR_RTT",
		StatusErrorInUse:   "RMI_ERROR_IN_USE",
		StatusErrorCoreGap: "RMI_ERROR_COREGAP",
		StatusErrorUnknown: "RMI_ERROR_UNKNOWN",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

func TestResultHelpers(t *testing.T) {
	if Ok().Status != StatusSuccess {
		t.Error("Ok")
	}
	if r := Ok1(42); r.Status != StatusSuccess || r.Vals[0] != 42 {
		t.Error("Ok1")
	}
	if Err(StatusErrorRec).Status != StatusErrorRec {
		t.Error("Err")
	}
}
