package sim

// Sim-time event tracing: a fixed-capacity, allocation-free flight
// recorder owned by the engine. Tracing is off by default — every emit
// site goes through a nil-receiver fast path that costs one branch, so
// the zero-allocation scheduling gates (TestZeroAlloc*) hold whether or
// not the binary was built with instrumentation compiled in.
//
// The buffer is a true ring: when full, the oldest events are
// overwritten and counted in Dropped. That is the flight-recorder
// contract — the end of a trial is almost always the interesting part —
// and it keeps Emit O(1) with no growth path.
//
// Event names must be static strings (package-level constants or
// struct-held labels); emit sites must never build a name with fmt or
// concatenation, or the "allocation-free" half of the contract breaks.
// Anything variable goes in Arg or Lane.
//
// The rule extends to every label that reaches the tracer as a Det:
// Engine.At/After labels, hw.Executor.Start labels, host.Kernel.Submit
// labels and NewTimer/NewTicker labels are static names of the kind of
// event ("exec", "guest", "poll", "ipi", "irq", "exit"), never strings
// built per event or per instance.

// TraceCat classifies trace events by the subsystem that emitted them.
// Categories become Perfetto track groups on export.
type TraceCat uint8

// Trace categories, one per instrumented subsystem edge.
const (
	TCEngine  TraceCat = iota // scheduler: schedule / fire / cancel
	TCWorld                   // CPU world switches (Normal/Realm/Root)
	TCExit                    // vCPU exits and re-entries
	TCIRQ                     // IPIs, GIC injection and delivery
	TCProxy                   // RMM/SMC calls proxied over the mailbox transport
	TCUarch                   // µarch flushes and LLC evictions
	TCGranule                 // granule delegation state transitions
	numTraceCats
)

var traceCatNames = [numTraceCats]string{
	"engine", "world", "exit", "irq", "proxy", "uarch", "granule",
}

func (c TraceCat) String() string {
	if int(c) < len(traceCatNames) {
		return traceCatNames[c]
	}
	return "trace?"
}

// LaneGlobal is the Lane value for events not tied to a specific core
// (engine queue operations, granule table transitions).
const LaneGlobal int32 = -1

// TraceEvent is one recorded simulation event. Events are fixed-size
// values; a Tracer's ring is a single []TraceEvent allocation.
type TraceEvent struct {
	At   Time     // sim-time timestamp
	Dur  Duration // span length; 0 for instant events
	Arg  int64    // event-specific payload (target core, PA, FID, ...)
	Name string   // static operation label, e.g. "hw.ipi"
	Det  string   // optional detail, e.g. the scheduled callback's label
	Lane int32    // core number, or LaneGlobal
	Cat  TraceCat
}

// Tracer records TraceEvents into a fixed-capacity ring. The zero of
// *Tracer (nil) is the disabled tracer: every method is safe to call
// and does nothing, which is what makes unconditional emit sites cheap.
type Tracer struct {
	eng     *Engine
	buf     []TraceEvent
	head    int    // next write slot
	n       int    // live events, <= len(buf)
	dropped uint64 // events overwritten after the ring filled
}

// DefaultTraceCap is the ring capacity used when a caller enables
// tracing without choosing one (64k events ≈ a few MB).
const DefaultTraceCap = 1 << 16

// EnableTracing attaches a fresh tracer with the given ring capacity
// (DefaultTraceCap if capacity <= 0) and returns it. Any previous
// tracer and its events are discarded. Engine.Reset detaches the
// tracer: a reset engine is observationally identical to a new one.
func (e *Engine) EnableTracing(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	e.trc = &Tracer{eng: e, buf: make([]TraceEvent, capacity)}
	return e.trc
}

// Trace reports the attached tracer, or nil when tracing is disabled.
// The result is always safe to emit on: sites write
// e.Trace().Emit(...) unconditionally.
func (e *Engine) Trace() *Tracer { return e.trc }

// Emit records an instant event at the current simulation time.
func (tr *Tracer) Emit(cat TraceCat, name string, lane int32, arg int64) {
	if tr == nil {
		return
	}
	tr.add(TraceEvent{At: tr.eng.now, Cat: cat, Name: name, Lane: lane, Arg: arg})
}

// Span records an event covering [now, now+dur) — a world switch, a
// flush, an in-flight IPI.
func (tr *Tracer) Span(cat TraceCat, name string, lane int32, dur Duration, arg int64) {
	if tr == nil {
		return
	}
	tr.add(TraceEvent{At: tr.eng.now, Dur: dur, Cat: cat, Name: name, Lane: lane, Arg: arg})
}

// EmitDetail is Emit with a second label — e.g. the scheduled
// callback's queue label, or a mailbox name. Both strings must still be
// pre-existing (no per-emit formatting).
func (tr *Tracer) EmitDetail(cat TraceCat, name, det string, lane int32, arg int64) {
	if tr == nil {
		return
	}
	tr.add(TraceEvent{At: tr.eng.now, Cat: cat, Name: name, Det: det, Lane: lane, Arg: arg})
}

// SpanDetail is Span with a second label.
func (tr *Tracer) SpanDetail(cat TraceCat, name, det string, lane int32, dur Duration, arg int64) {
	if tr == nil {
		return
	}
	tr.add(TraceEvent{At: tr.eng.now, Dur: dur, Cat: cat, Name: name, Det: det, Lane: lane, Arg: arg})
}

func (tr *Tracer) add(ev TraceEvent) {
	if tr.n == len(tr.buf) {
		tr.dropped++
	} else {
		tr.n++
	}
	tr.buf[tr.head] = ev
	tr.head++
	if tr.head == len(tr.buf) {
		tr.head = 0
	}
}

// Len reports the number of retained events.
func (tr *Tracer) Len() int {
	if tr == nil {
		return 0
	}
	return tr.n
}

// Cap reports the ring capacity.
func (tr *Tracer) Cap() int {
	if tr == nil {
		return 0
	}
	return len(tr.buf)
}

// Dropped reports how many events were overwritten because the ring was
// full. When nonzero, Events holds the most recent Cap() events.
func (tr *Tracer) Dropped() uint64 {
	if tr == nil {
		return 0
	}
	return tr.dropped
}

// Events appends the retained events to dst in emit order (which is
// sim-time order: the engine clock never goes backwards) and returns
// the extended slice.
func (tr *Tracer) Events(dst []TraceEvent) []TraceEvent {
	if tr == nil || tr.n == 0 {
		return dst
	}
	start := tr.head - tr.n
	if start < 0 {
		start += len(tr.buf)
	}
	for i := 0; i < tr.n; i++ {
		j := start + i
		if j >= len(tr.buf) {
			j -= len(tr.buf)
		}
		dst = append(dst, tr.buf[j])
	}
	return dst
}
