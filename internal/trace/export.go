package trace

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CSV renders the figure as comma-separated values: a header row with the
// x label and series labels, then one row per x value. Missing points are
// empty cells. Suitable for direct plotting.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(f.XLabel))
	for _, l := range f.order {
		b.WriteByte(',')
		b.WriteString(csvEscape(l))
	}
	b.WriteByte('\n')

	xs := map[float64]bool{}
	for _, s := range f.series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	for _, x := range sorted {
		fmt.Fprintf(&b, "%g", x)
		for _, l := range f.order {
			b.WriteByte(',')
			if y, ok := f.series[l].YAt(x); ok {
				b.WriteString(csvFloat(y))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// csvFloat renders a y value for CSV. A NaN or infinite value — a
// division by an empty window, an uninitialized reduction — renders as
// an empty cell (missing point) rather than poisoning the file with a
// token downstream plotting can't parse.
func csvFloat(y float64) string {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return ""
	}
	return strconv.FormatFloat(y, 'g', -1, 64)
}

// CSV renders the table as comma-separated values: a header with the
// column names, then one row per entry.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("row")
	for _, c := range t.columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(csvEscape(r.label))
		for _, c := range t.columns {
			b.WriteByte(',')
			b.WriteString(csvEscape(r.cells[c]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
