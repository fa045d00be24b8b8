package trace

import (
	"fmt"
	"strings"

	"coregap/internal/sim"
)

// WindowStat is the reduced summary of one simulated-time window of a
// Windowed metric. Percentiles come from the streaming Recorder, so they
// carry its (sub-0.01%) quantization; Count/Sum/Mean/Min/Max are exact.
type WindowStat struct {
	Index      int64    // window ordinal on the absolute grid (start = Index * width)
	Start, End sim.Time // [Start, End) in simulated time
	Count      uint64
	Sum        sim.Duration
	Mean       sim.Duration
	Min, Max   sim.Duration
	P50        sim.Duration
	P90        sim.Duration
	P99        sim.Duration
	P999       sim.Duration
}

// Windowed rolls a Recorder over fixed simulated-time windows. Windows
// live on the absolute grid [k*width, (k+1)*width): a sample observed at
// simulated time now belongs to window now/width regardless of when
// recording started, so two runs of the same scenario place every sample
// in the same window no matter how trials are scheduled — windowed output
// is bit-identical at any -parallel N because it is driven purely by
// engine time.
//
// Rolling forward closes every elapsed window, including empty interior
// ones (an idle window is a real observation — it is what a queueing
// collapse looks like), and reuses the single internal Recorder in place,
// so the record path stays allocation-free at steady state.
type Windowed struct {
	name  string
	width sim.Duration
	epoch uint64

	haveWin bool
	winIdx  int64
	rec     Recorder
	stats   []WindowStat
}

// Name reports the metric's name.
func (w *Windowed) Name() string { return w.name }

// Width reports the window width.
func (w *Windowed) Width() sim.Duration { return w.width }

// reset rewinds the windowed metric in place, retaining the recorder's
// bucket pages and the closed-window slice capacity.
func (w *Windowed) reset() {
	w.haveWin = false
	w.winIdx = 0
	w.rec.Reset()
	w.stats = w.stats[:0]
}

// roll closes every window that ends at or before the one containing now.
func (w *Windowed) roll(idx int64) {
	if !w.haveWin {
		w.haveWin = true
		w.winIdx = idx
		return
	}
	for w.winIdx < idx {
		w.stats = append(w.stats, w.close())
		w.winIdx++
		if w.rec.count != 0 {
			w.rec.Reset()
		}
	}
}

// close summarizes the current (open) window from the live recorder.
func (w *Windowed) close() WindowStat {
	st := WindowStat{
		Index: w.winIdx,
		Start: sim.Time(w.winIdx * int64(w.width)),
		End:   sim.Time((w.winIdx + 1) * int64(w.width)),
	}
	if n := w.rec.Count(); n > 0 {
		st.Count = n
		st.Sum = sim.Duration(w.rec.Sum())
		st.Mean = sim.Duration(w.rec.Mean())
		st.Min = sim.Duration(w.rec.Min())
		st.Max = sim.Duration(w.rec.Max())
		st.P50 = sim.Duration(w.rec.Percentile(50))
		st.P90 = sim.Duration(w.rec.Percentile(90))
		st.P99 = sim.Duration(w.rec.Percentile(99))
		st.P999 = sim.Duration(w.rec.Percentile(99.9))
	}
	return st
}

// Observe records a duration observed at simulated time now, first
// closing any windows that elapsed since the previous observation.
func (w *Windowed) Observe(now sim.Time, d sim.Duration) {
	w.roll(int64(now) / int64(w.width))
	w.rec.Record(int64(d))
}

// Flush closes all windows up to and including the one containing now
// (the final, possibly partial window is closed as-is). Call once at the
// end of a run, before reading Stats.
func (w *Windowed) Flush(now sim.Time) {
	w.roll(int64(now) / int64(w.width))
	if w.haveWin {
		w.stats = append(w.stats, w.close())
		w.winIdx++
		if w.rec.count != 0 {
			w.rec.Reset()
		}
		w.haveWin = false
	}
}

// Stats reports the closed windows in time order. The slice aliases the
// metric's internal storage: copy it before the owning Set is reset.
func (w *Windowed) Stats() []WindowStat { return w.stats }

// WindowLog is an exportable artifact: the per-window latency timeline of
// one or more labelled windowed metrics, in the long format (one row per
// window per label) that plots directly as an SLO-over-time chart.
type WindowLog struct {
	Name  string
	Title string
	Width sim.Duration
	rows  []windowRow
}

type windowRow struct {
	label string
	stat  WindowStat
}

// NewWindowLog returns an empty window log for windows of the given width.
func NewWindowLog(name, title string, width sim.Duration) *WindowLog {
	return &WindowLog{Name: name, Title: title, Width: width}
}

// Add appends one label's window sequence to the log.
func (l *WindowLog) Add(label string, stats []WindowStat) {
	for _, st := range stats {
		l.AddStat(label, st)
	}
}

// AddStat appends a single labelled window.
func (l *WindowLog) AddStat(label string, st WindowStat) {
	l.rows = append(l.rows, windowRow{label: label, stat: st})
}

// CSV renders the log as one row per (window, label). Empty windows keep
// their row — a gap in service is data — with the latency cells empty.
func (l *WindowLog) CSV() string {
	var b strings.Builder
	b.WriteString("window,start_s,label,count,mean_ns,p50_ns,p90_ns,p99_ns,p999_ns,max_ns\n")
	for _, r := range l.rows {
		st := r.stat
		fmt.Fprintf(&b, "%d,%g,%s,", st.Index, sim.Duration(st.Start).Seconds(), csvEscape(r.label))
		if st.Count == 0 {
			b.WriteString("0,,,,,,\n")
			continue
		}
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d\n",
			st.Count, int64(st.Mean), int64(st.P50), int64(st.P90),
			int64(st.P99), int64(st.P999), int64(st.Max))
	}
	return b.String()
}

// String renders the log as an aligned human-readable timeline.
func (l *WindowLog) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (window %v) ==\n", l.Name, l.Title, l.Width)
	fmt.Fprintf(&b, "%-4s %-10s %-28s %8s %12s %12s %12s %12s\n",
		"win", "start", "label", "n", "mean", "p50", "p99", "p999")
	for _, r := range l.rows {
		st := r.stat
		if st.Count == 0 {
			fmt.Fprintf(&b, "%-4d %-10.4g %-28s %8d %12s %12s %12s %12s\n",
				st.Index, sim.Duration(st.Start).Seconds(), r.label, 0, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-4d %-10.4g %-28s %8d %12v %12v %12v %12v\n",
			st.Index, sim.Duration(st.Start).Seconds(), r.label, st.Count,
			st.Mean, st.P50, st.P99, st.P999)
	}
	return b.String()
}
