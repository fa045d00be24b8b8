package main

import (
	"reflect"
	"testing"

	"coregap/internal/exp"
)

// specsOf lists every spec a job's pass runs.
func specsOf(j *job) []exp.ScenarioSpec {
	if j.es == nil {
		return j.specs
	}
	var specs []exp.ScenarioSpec
	for _, e := range j.es {
		specs = append(specs, e.Specs(j.profile)...)
	}
	return specs
}

// TestSpecsPureInSeed: a seed always yields the same specs, another seed
// other ones, and the battery's derived trial IDs are unique.
func TestSpecsPureInSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := newJob(w, 7, batterySeeds)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newJob(w, 7, batterySeeds)
		c, _ := newJob(w, 8, batterySeeds)
		sa, sb, sc := specsOf(a), specsOf(b), specsOf(c)
		if len(sa) != a.trials || len(sa) == 0 {
			t.Errorf("%s: %d specs, job counts %d trials", w.name, len(sa), a.trials)
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: specs differ between two generations at one seed", w.name)
		}
		if reflect.DeepEqual(sa, sc) {
			t.Errorf("%s: seeds 7 and 8 generate identical specs", w.name)
		}
	}
	battery, _ := lookupWorkload("attack-battery")
	j, _ := newJob(battery, 7, batterySeeds)
	ids := map[string]bool{}
	for _, s := range j.specs {
		if ids[s.ID] {
			t.Fatalf("battery trial ID %q repeats", s.ID)
		}
		ids[s.ID] = true
	}
	if len(ids) != 3*batterySeeds {
		t.Errorf("battery has %d trials, want %d", len(ids), 3*batterySeeds)
	}
}

// TestDigestStableAcrossPasses runs a 3-trial battery twice in one
// process: pooled state leaking from one pass into the next would change
// the second digest.
func TestDigestStableAcrossPasses(t *testing.T) {
	battery, _ := lookupWorkload("attack-battery")
	j, err := newJob(battery, digestSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := j.run(false), j.run(true)
	if p1.failed+p2.failed != 0 || len(p1.trials) != 3 || len(p2.done) != 3 {
		t.Fatalf("passes: %d+%d failed, %d trials, %d completion marks", p1.failed, p2.failed, len(p1.trials), len(p2.done))
	}
	if p1.digest != p2.digest {
		t.Errorf("digest changed between passes: %s then %s", p1.digest, p2.digest)
	}
	other, _ := newJob(battery, digestSeed+1, 1)
	if other.run(false).digest == p1.digest {
		t.Errorf("seeds %d and %d give one digest", digestSeed, digestSeed+1)
	}
}
