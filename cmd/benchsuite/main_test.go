package main

import (
	"encoding/csv"
	"strings"
	"testing"

	"coregap/internal/exp"
)

// TestCountersCSVParses: every -counters row is trial,counter,value,
// even for fig6, whose busy-wait trial IDs hold a comma.
func TestCountersCSVParses(t *testing.T) {
	fig6, _ := exp.Lookup("fig6")
	reports, err := exp.NewRunner(1).RunExperiments([]*exp.Experiment{fig6}, exp.Profile{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(reports[0].CountersCSV()))
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	commaIDs := 0
	for i, row := range rows {
		if len(row) != 3 {
			t.Fatalf("row %d has %d fields: %q", i+1, len(row), row)
		}
		if strings.Contains(row[0], ",") {
			commaIDs++
		}
	}
	if commaIDs == 0 {
		t.Fatal("no trial ID holds a comma; the test no longer exercises quoting")
	}
}
