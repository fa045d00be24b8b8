// Package attest implements the measurement and attestation machinery
// guests rely on to trust the platform (§2.4): a measurement ledger that
// accumulates the realm initial measurement (RIM), and attestation tokens
// binding it to a platform key.
//
// Crucially for this paper, the *monitor's own image* is part of the
// attested chain: a guest can verify it is running on a core-gapping RMM
// (and refuse to run otherwise), which is what makes core gapping a
// guarantee rather than a host courtesy (§2.3, §6.1).
package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
)

// Measurement is a SHA-256 digest.
type Measurement [sha256.Size]byte

// String renders the measurement in hex.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// MeasureBytes digests a blob.
func MeasureBytes(data []byte) Measurement { return sha256.Sum256(data) }

// Extend folds a new digest into an accumulator, TPM-style:
// new = H(old || data-digest).
func Extend(old Measurement, data []byte) Measurement {
	d := sha256.Sum256(data)
	h := sha256.New()
	h.Write(old[:])
	h.Write(d[:])
	var out Measurement
	copy(out[:], h.Sum(nil))
	return out
}

// Ledger accumulates a realm's measurements during construction. The RIM
// is sealed when the realm is activated.
type Ledger struct {
	rim    Measurement
	sealed bool
}

// ExtendRIM folds construction-time data (initial memory contents, vCPU
// creation parameters) into the realm initial measurement.
func (l *Ledger) ExtendRIM(data []byte) error {
	if l.sealed {
		return errors.New("attest: RIM extended after activation")
	}
	l.rim = Extend(l.rim, data)
	return nil
}

// Seal freezes the RIM (realm activation).
func (l *Ledger) Seal() { l.sealed = true }

// Sealed reports whether the realm has been activated.
func (l *Ledger) Sealed() bool { return l.sealed }

// RIM reports the realm initial measurement.
func (l *Ledger) RIM() Measurement { return l.rim }

// Token is a signed attestation report. The platform section covers the
// monitor image (so the verifier learns whether a core-gapping monitor is
// running); the realm section covers the guest's own measurements.
type Token struct {
	PlatformMeasurement Measurement // trusted firmware + RMM image
	MonitorVersion      string
	CoreGapped          bool // monitor enforces core gapping
	RIM                 Measurement
	Challenge           [32]byte
	MAC                 [sha256.Size]byte
}

// Signer issues tokens under a platform key (modelled as an HMAC key —
// the real platform uses an ECDSA key rooted in the vendor's CA; the
// trust structure is identical).
type Signer struct {
	key []byte
}

// NewSigner returns a signer for the given platform key.
func NewSigner(key []byte) *Signer {
	if len(key) == 0 {
		panic("attest: empty platform key")
	}
	return &Signer{key: append([]byte(nil), key...)}
}

func (s *Signer) mac(t *Token) [sha256.Size]byte {
	h := hmac.New(sha256.New, s.key)
	h.Write(t.PlatformMeasurement[:])
	h.Write([]byte(t.MonitorVersion))
	var gap [8]byte
	if t.CoreGapped {
		binary.LittleEndian.PutUint64(gap[:], 1)
	}
	h.Write(gap[:])
	h.Write(t.RIM[:])
	h.Write(t.Challenge[:])
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// Issue signs a token for the given ledger and platform state.
func (s *Signer) Issue(platform Measurement, version string, coreGapped bool, l *Ledger, challenge [32]byte) (*Token, error) {
	if !l.Sealed() {
		return nil, errors.New("attest: token requested before activation")
	}
	t := &Token{
		PlatformMeasurement: platform,
		MonitorVersion:      version,
		CoreGapped:          coreGapped,
		RIM:                 l.RIM(),
		Challenge:           challenge,
	}
	t.MAC = s.mac(t)
	return t, nil
}

// Verify checks a token's MAC under the signer's key.
func (s *Signer) Verify(t *Token) bool {
	want := s.mac(t)
	return hmac.Equal(want[:], t.MAC[:])
}

// Policy is a guest owner's acceptance policy for tokens.
type Policy struct {
	// RequireCoreGapped rejects tokens from monitors that do not enforce
	// core gapping.
	RequireCoreGapped bool
	// AllowedPlatforms lists acceptable platform measurements (empty =
	// any platform signed by the key).
	AllowedPlatforms []Measurement
	// ExpectedRIM, when non-zero, must match the token's RIM.
	ExpectedRIM Measurement
}

// Evaluate reports whether the (already signature-verified) token meets
// the policy, with a reason on rejection.
func (p Policy) Evaluate(t *Token) error {
	if p.RequireCoreGapped && !t.CoreGapped {
		return errors.New("attest: monitor does not enforce core gapping")
	}
	if len(p.AllowedPlatforms) > 0 {
		ok := false
		for _, m := range p.AllowedPlatforms {
			if m == t.PlatformMeasurement {
				ok = true
			}
		}
		if !ok {
			return errors.New("attest: platform measurement not in allow-list")
		}
	}
	var zero Measurement
	if p.ExpectedRIM != zero && p.ExpectedRIM != t.RIM {
		return errors.New("attest: RIM mismatch")
	}
	return nil
}
