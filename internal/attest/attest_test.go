package attest

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestExtendOrderSensitive(t *testing.T) {
	var zero Measurement
	a := Extend(Extend(zero, []byte("a")), []byte("b"))
	b := Extend(Extend(zero, []byte("b")), []byte("a"))
	if a == b {
		t.Fatal("extend must be order sensitive")
	}
	if a == zero || b == zero {
		t.Fatal("extend produced zero")
	}
}

func TestExtendDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		var zero Measurement
		return Extend(zero, data) == Extend(zero, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLedgerLifecycle(t *testing.T) {
	var l Ledger
	if err := l.ExtendRIM([]byte("kernel")); err != nil {
		t.Fatal(err)
	}
	if err := l.ExtendRIM([]byte("initrd")); err != nil {
		t.Fatal(err)
	}
	rim := l.RIM()

	l.Seal()
	if !l.Sealed() {
		t.Fatal("not sealed")
	}
	// RIM after activation fails.
	if err := l.ExtendRIM([]byte("evil")); err == nil {
		t.Fatal("RIM extend after seal succeeded")
	}
	if l.RIM() != rim {
		t.Fatal("RIM changed after seal")
	}
}

func TestRIMReflectsContents(t *testing.T) {
	mk := func(blobs ...string) Measurement {
		var l Ledger
		for _, b := range blobs {
			l.ExtendRIM([]byte(b))
		}
		return l.RIM()
	}
	if mk("kernel-v1") == mk("kernel-v2") {
		t.Fatal("different contents, same RIM")
	}
	if mk("kernel-v1") != mk("kernel-v1") {
		t.Fatal("same contents, different RIM")
	}
}

func newSealedLedger() *Ledger {
	var l Ledger
	l.ExtendRIM([]byte("guest-image"))
	l.Seal()
	return &l
}

func TestTokenIssueVerify(t *testing.T) {
	s := NewSigner([]byte("platform-key"))
	platform := MeasureBytes([]byte("tf-rmm-coregap-1.0"))
	var challenge [32]byte
	copy(challenge[:], "nonce")

	l := newSealedLedger()
	tok, err := s.Issue(platform, "rmm-0.3.0+coregap", true, l, challenge)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Verify(tok) {
		t.Fatal("fresh token does not verify")
	}
	if !tok.CoreGapped || tok.RIM != l.RIM() {
		t.Fatal("token fields wrong")
	}

	// Tampering with any claim breaks the MAC.
	tampered := *tok
	tampered.CoreGapped = false
	if s.Verify(&tampered) {
		t.Fatal("tampered core-gap claim verified")
	}
	tampered2 := *tok
	tampered2.RIM = MeasureBytes([]byte("other"))
	if s.Verify(&tampered2) {
		t.Fatal("tampered RIM verified")
	}

	// A different key cannot forge.
	s2 := NewSigner([]byte("other-key"))
	if s2.Verify(tok) {
		t.Fatal("token verified under wrong key")
	}
}

func TestTokenRequiresActivation(t *testing.T) {
	s := NewSigner([]byte("k"))
	var l Ledger
	if _, err := s.Issue(Measurement{}, "v", true, &l, [32]byte{}); err == nil {
		t.Fatal("token issued before activation")
	}
}

func TestPolicyCoreGapRequirement(t *testing.T) {
	s := NewSigner([]byte("k"))
	l := newSealedLedger()
	gapped, _ := s.Issue(MeasureBytes([]byte("p")), "v", true, l, [32]byte{})
	shared, _ := s.Issue(MeasureBytes([]byte("p")), "v", false, l, [32]byte{})

	pol := Policy{RequireCoreGapped: true}
	if err := pol.Evaluate(gapped); err != nil {
		t.Fatalf("core-gapped token rejected: %v", err)
	}
	if err := pol.Evaluate(shared); err == nil {
		t.Fatal("shared-core token accepted under core-gap policy")
	}
}

func TestPolicyPlatformAllowList(t *testing.T) {
	s := NewSigner([]byte("k"))
	l := newSealedLedger()
	good := MeasureBytes([]byte("good-fw"))
	tok, _ := s.Issue(good, "v", true, l, [32]byte{})

	pol := Policy{AllowedPlatforms: []Measurement{MeasureBytes([]byte("other-fw"))}}
	if err := pol.Evaluate(tok); err == nil {
		t.Fatal("unlisted platform accepted")
	}
	pol.AllowedPlatforms = append(pol.AllowedPlatforms, good)
	if err := pol.Evaluate(tok); err != nil {
		t.Fatalf("listed platform rejected: %v", err)
	}
}

func TestPolicyRIMPinning(t *testing.T) {
	s := NewSigner([]byte("k"))
	l := newSealedLedger()
	tok, _ := s.Issue(MeasureBytes([]byte("p")), "v", true, l, [32]byte{})

	pol := Policy{ExpectedRIM: l.RIM()}
	if err := pol.Evaluate(tok); err != nil {
		t.Fatalf("matching RIM rejected: %v", err)
	}
	pol.ExpectedRIM = MeasureBytes([]byte("different image"))
	if err := pol.Evaluate(tok); err == nil {
		t.Fatal("mismatched RIM accepted")
	}
}

func TestMeasurementString(t *testing.T) {
	m := MeasureBytes([]byte("x"))
	if len(m.String()) != 64 {
		t.Fatalf("hex length = %d", len(m.String()))
	}
	if bytes.Equal(m[:], make([]byte, 32)) {
		t.Fatal("digest is zero")
	}
}
