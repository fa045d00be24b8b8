package trace

import (
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestFigureCSV(t *testing.T) {
	f := NewFigure("F", "t", "cores", "score")
	f.Series("a").Add(2, 1.5)
	f.Series("b, with comma").Add(2, 2.5)
	f.Series("a").Add(4, 3)
	f.Series(`SR-IOV "fast", gapped`).Add(4, 0.5)
	f.Series("empty series")
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	// Quotes inside a label are doubled; a series with no points is
	// still a column.
	if lines[0] != `cores,a,"b, with comma","SR-IOV ""fast"", gapped",empty series` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "2,1.5,2.5,," {
		t.Fatalf("row = %q", lines[1])
	}
	// Missing cell is empty.
	if lines[2] != "4,3,,0.5," {
		t.Fatalf("row = %q", lines[2])
	}
}

// readCSV parses an exported artifact with the standard RFC 4180 reader,
// so the round-trip tests check what a downstream plotting tool would see.
func readCSV(t *testing.T, data string) [][]string {
	t.Helper()
	r := csv.NewReader(strings.NewReader(data))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("csv: %v\n%s", err, data)
	}
	return records
}

func TestFigureCSVRoundTrip(t *testing.T) {
	f := NewFigure("F", "t", "message bytes", "Gbit/s")
	f.Series("virtio shared-core").Add(64, 0.125)
	f.Series("virtio shared-core").Add(1024, 1.75)
	f.Series(`SR-IOV "fast", gapped`).Add(64, 0.5)
	f.Series("empty series")

	records := readCSV(t, f.CSV())
	header := append([]string{f.XLabel}, f.Labels()...)
	if !reflect.DeepEqual(records[0], header) {
		t.Fatalf("header = %q, want %q", records[0], header)
	}
	// Every point comes back at its x under its series; every other cell
	// is empty.
	if len(records) != 3 {
		t.Fatalf("records = %d, want header + 2 x values", len(records))
	}
	for _, rec := range records[1:] {
		x, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			t.Fatalf("x %q: %v", rec[0], err)
		}
		for col, cell := range rec[1:] {
			want, ok := f.Series(header[col+1]).YAt(x)
			if !ok {
				if cell != "" {
					t.Fatalf("x=%v series %q: cell %q, want empty", x, header[col+1], cell)
				}
				continue
			}
			got, err := strconv.ParseFloat(cell, 64)
			if err != nil || got != want {
				t.Fatalf("x=%v series %q: cell %q, want %v", x, header[col+1], cell, want)
			}
		}
	}
}

func TestTableCSVRoundTrip(t *testing.T) {
	tb := NewTable("T", "t", "Latency", "Notes")
	tb.AddRow("sync", "258 ns", `has "quotes"`)
	tb.AddRow("async, batched", "1.2 us", "")

	want := [][]string{
		{"row", "Latency", "Notes"},
		{"sync", "258 ns", `has "quotes"`},
		{"async, batched", "1.2 us", ""},
	}
	if got := readCSV(t, tb.CSV()); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %q\nwant %q", got, want)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "t", "Latency", "Notes")
	tb.AddRow("sync", "258 ns", `has "quotes"`)
	tb.AddRow("async, batched", "1.2 us", "")
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "row,Latency,Notes" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `sync,258 ns,"has ""quotes"""` {
		t.Fatalf("row = %q", lines[1])
	}
	if lines[2] != `"async, batched",1.2 us,` {
		t.Fatalf("row = %q", lines[2])
	}
}
