// Package attack implements the adversary's side of the paper's threat
// model (§2.4): transient-execution attack primitives that sample
// microarchitectural residue, and a harness that runs attacker/victim
// pairs under shared-core and core-gapped scheduling to demonstrate the
// paper's security claim — core gapping removes every same-core channel
// from the guest's TCB, leaving only the catalogued cross-core leaks
// (CrossTalk's staging buffer, LLC contention, NetSpectre-class remote
// timing).
package attack

import (
	"fmt"
	"sort"

	"coregap/internal/hw"
	"coregap/internal/uarch"
	"coregap/internal/vulncat"
)

// Sample is one observation an attack primitive extracted.
type Sample struct {
	Structure uarch.StructKind
	Victim    uarch.DomainID
	Secret    bool
	Tag       uint64
}

// Primitive is a transient-execution attack primitive: given code
// execution in the attacker's domain on a given core, it samples the
// structures its vulnerability exposes.
type Primitive struct {
	Vuln vulncat.Vuln
}

// SampleCore runs the primitive on the given core in the attacker's
// domain and reports the foreign residue it can observe. The primitive
// sees exactly what its vulnerability's structures hold:
//
//   - per-core structures: only from the core the attacker executes on;
//   - shared structures: from anywhere on the socket (subject to
//     LLC partitioning).
func (p Primitive) SampleCore(m *hw.Machine, core hw.CoreID, attacker uarch.DomainID) []Sample {
	var out []Sample
	cs := m.Core(core).Uarch
	for _, k := range p.Vuln.Structures {
		if !k.Shared() {
			for _, e := range cs.Buffer(k).Residue(attacker) {
				out = append(out, Sample{Structure: k, Victim: e.Domain, Secret: e.Secret, Tag: e.Tag})
			}
			continue
		}
		switch k {
		case uarch.Staging:
			for _, e := range m.Shared().Staging().Residue(attacker) {
				out = append(out, Sample{Structure: k, Victim: e.Domain, Secret: e.Secret, Tag: e.Tag})
			}
		case uarch.LLC:
			for _, e := range m.Shared().LLC().Residue(attacker) {
				if m.Shared().LLCObservable(e.Domain, attacker) {
					out = append(out, Sample{Structure: k, Victim: e.Domain, Secret: e.Secret, Tag: e.Tag})
				}
			}
		}
	}
	return out
}

// Leaks reports how many secret-tagged entries of victim the primitive
// observes from the given core: exactly len(LeakedFrom(SampleCore(m,
// core, attacker), victim)), counted in place. SampleCore's filters
// reduce to one trust check for the victim and, for the LLC, one
// LLCObservable check; what remains is a sum of SecretCounts, which
// allocates nothing and does not materialize plain deferred fills.
func (p Primitive) Leaks(m *hw.Machine, core hw.CoreID, attacker, victim uarch.DomainID) int {
	if victim == uarch.DomainNone || victim.Trusts(attacker) {
		return 0
	}
	n := 0
	cs := m.Core(core).Uarch
	for _, k := range p.Vuln.Structures {
		switch {
		case !k.Shared():
			n += cs.Buffer(k).SecretCount(victim)
		case k == uarch.Staging:
			n += m.Shared().Staging().SecretCount(victim)
		case k == uarch.LLC:
			if m.Shared().LLCObservable(victim, attacker) {
				n += m.Shared().LLC().SecretCount(victim)
			}
		}
	}
	return n
}

// LeakedFrom filters samples to secret-bearing residue of one victim.
func LeakedFrom(samples []Sample, victim uarch.DomainID) []Sample {
	var out []Sample
	for _, s := range samples {
		if s.Victim == victim && s.Secret {
			out = append(out, s)
		}
	}
	return out
}

// Outcome is one attack attempt's result.
type Outcome struct {
	Vuln      vulncat.Vuln
	Placement vulncat.Placement
	// Leaked reports whether secret-tagged victim state was observed.
	Leaked bool
	// Samples counts the secret victim samples extracted.
	Samples int
}

// BatteryResult aggregates a full battery run.
type BatteryResult struct {
	Config   string
	Outcomes []Outcome
}

// LeakedVulns lists the vulnerabilities that leaked, sorted by name.
func (r BatteryResult) LeakedVulns() []string {
	var out []string
	for _, o := range r.Outcomes {
		if o.Leaked {
			out = append(out, o.Vuln.Name)
		}
	}
	sort.Strings(out)
	return out
}

// String summarizes the battery.
func (r BatteryResult) String() string {
	leaked := r.LeakedVulns()
	return fmt.Sprintf("%s: %d/%d vulnerabilities leaked %v",
		r.Config, len(leaked), len(r.Outcomes), leaked)
}
