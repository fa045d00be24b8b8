package sim

// The counter registry is the simulated analogue of a CPU's perf
// counters: cheap named uint64 event counts that are always on. It is
// the only counter registry; every count a trial reports is one.
//
// The split that keeps incrementing off the map: names are registered
// once, process-wide — at package init time, or, for per-VM counters,
// once per distinct VM name — (DefineCounter returns a dense
// CounterID), and each Engine owns a plain []uint64 bank indexed by
// that id. An increment on the hot path is a bounds check and an add —
// no map lookup, no interning, no allocation once the bank has grown to
// the registry size. Reading names back out (trial capture, CSV export)
// is the cold path and takes a lock.

import "sync"

// CounterID indexes a counter registered with DefineCounter. IDs are
// dense, process-wide, and stable for the life of the process.
type CounterID int32

var counterReg struct {
	sync.Mutex
	names []string
	index map[string]CounterID
}

// DefineCounter registers a named counter and returns its id.
// Registration is idempotent — the same name always yields the same
// id — and is meant to run from package-level var initialisation, e.g.
//
//	var cWorldSwitch = sim.DefineCounter("hw.world_switch")
//
// or once per distinct run-time name (core memoizes each VM name's
// counters). A reader that knows only a name resolves it here too.
func DefineCounter(name string) CounterID {
	counterReg.Lock()
	defer counterReg.Unlock()
	if counterReg.index == nil {
		counterReg.index = make(map[string]CounterID)
	}
	if id, ok := counterReg.index[name]; ok {
		return id
	}
	id := CounterID(len(counterReg.names))
	counterReg.names = append(counterReg.names, name)
	counterReg.index[name] = id
	return id
}

// CounterName reports the name a CounterID was registered under.
func CounterName(id CounterID) string {
	counterReg.Lock()
	defer counterReg.Unlock()
	if id < 0 || int(id) >= len(counterReg.names) {
		return "counter?"
	}
	return counterReg.names[id]
}

// Count increments a counter by one.
func (e *Engine) Count(id CounterID) {
	if int(id) >= len(e.counts) {
		e.growCounts()
	}
	e.counts[id]++
}

// CountN increments a counter by n.
func (e *Engine) CountN(id CounterID, n uint64) {
	if int(id) >= len(e.counts) {
		e.growCounts()
	}
	e.counts[id] += n
}

// CounterValue reports a counter's value on this engine.
func (e *Engine) CounterValue(id CounterID) uint64 {
	if id < 0 || int(id) >= len(e.counts) {
		return 0
	}
	return e.counts[id]
}

// Counters calls f for every counter with a nonzero value on this
// engine, in registration (id) order — a deterministic iteration, fit
// for capture into per-trial output.
func (e *Engine) Counters(f func(name string, v uint64)) {
	for id, v := range e.counts {
		if v != 0 {
			f(CounterName(CounterID(id)), v)
		}
	}
}

// growCounts sizes the bank to the current registry. It runs at most a
// handful of times per engine (at init-time size, then per new VM name);
// after that Count is a pure array increment.
func (e *Engine) growCounts() {
	counterReg.Lock()
	n := len(counterReg.names)
	counterReg.Unlock()
	if n < cap(e.counts) {
		n = cap(e.counts)
	}
	grown := make([]uint64, n)
	copy(grown, e.counts)
	e.counts = grown
}
