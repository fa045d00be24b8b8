package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/digests.txt from this run")

// digestFile pins every registered experiment's artifacts at seed 42.
var digestFile = filepath.Join("testdata", "digests.txt")

// digestEntry is one pinned run: an experiment under a profile.
type digestEntry struct {
	key  string // the line's name in digests.txt
	name string // the registry name
	p    Profile
}

// digestEntries lists every registered experiment at seed 42 with the
// reduced profile, then fig6 with the paper-sized one (its busy-wait
// trials are where host scheduling runs longest). -short drops the
// paper-sized entry.
func digestEntries() []digestEntry {
	var es []digestEntry
	for _, name := range Names() {
		es = append(es, digestEntry{name, name, Profile{Seed: 42}})
	}
	if !testing.Short() {
		es = append(es, digestEntry{"fig6-full", "fig6", Profile{Seed: 42, Full: true}})
	}
	return es
}

// reportDigest hashes what `benchsuite -csv DIR -counters` writes for a
// report: each artifact's name and CSV, then the counter bank.
func reportDigest(rep *Report) string {
	h := sha256.New()
	for _, a := range rep.Artifacts {
		fmt.Fprintf(h, "%s\n%s\n", a.Name, a.Item.CSV())
	}
	fmt.Fprintf(h, "%s-counters\n%s\n", rep.Experiment, rep.CountersCSV())
	return hex.EncodeToString(h.Sum(nil))
}

// TestArtifactDigests is the tier-1 artifact gate: every experiment's
// CSVs and per-trial counters at seed 42 must hash to the committed
// digest. A deliberate re-baseline shows up as a one-line-per-experiment
// diff of testdata/digests.txt; `go test ./internal/exp -run
// TestArtifactDigests -update` rewrites it.
func TestArtifactDigests(t *testing.T) {
	want := map[string]string{}
	if !*updateDigests {
		raw, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			key, sum, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed digest line %q", line)
			}
			want[key] = sum
		}
	}
	var out strings.Builder
	for _, de := range digestEntries() {
		e, ok := Lookup(de.name)
		if !ok {
			t.Fatalf("experiment %q not registered", de.name)
		}
		rep, err := NewRunner(1).RunExperiment(e, de.p)
		if err != nil {
			t.Fatalf("%s: %v", de.key, err)
		}
		got := reportDigest(rep)
		fmt.Fprintf(&out, "%s %s\n", de.key, got)
		if *updateDigests {
			continue
		}
		if w, ok := want[de.key]; !ok {
			t.Errorf("%s: no committed digest (run with -update)", de.key)
		} else if got != w {
			t.Errorf("%s: digest %s, committed %s", de.key, got, w)
		}
	}
	if *updateDigests {
		if testing.Short() {
			t.Fatal("-update needs the paper-sized entries: run without -short")
		}
		if err := os.WriteFile(digestFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
