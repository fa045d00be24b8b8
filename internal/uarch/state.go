package uarch

import (
	"fmt"

	"coregap/internal/sim"
)

// Sizes of the modelled structures, in entries. Absolute sizes only shape
// warmth-decay curves and sampling probabilities; relative sizes follow a
// contemporary Arm server core (≈AmpereOne class).
var defaultSizes = map[StructKind]int{
	L1D:         1024, // 64 KiB / 64 B lines
	L1I:         1024,
	L2:          16384, // 1 MiB private L2
	DTLB:        256,
	ITLB:        256,
	BTB:         4096,
	RSB:         32,
	StoreBuffer: 56,
	FillBuffer:  16,
	LoadPort:    8,
	FPURegs:     64,
	UopCache:    1536,
	APICRegs:    16,
	Prefetch:    64,
}

// CoreState is the per-core microarchitectural state.
type CoreState struct {
	bufs [sharedKindsStart]*Buffer
	log  fillLog // the deferred fills of bufs, one record per Touch
	// lastDomain is the domain that most recently executed; a change
	// means a same-core context switch between security domains occurred.
	lastDomain DomainID
	switches   uint64 // cross-domain same-core switches observed
}

// NewCoreState returns a core with all structures empty.
func NewCoreState() *CoreState {
	cs := &CoreState{}
	for k := StructKind(0); k < sharedKindsStart; k++ {
		b := NewBuffer(k, defaultSizes[k])
		b.log, b.slot = &cs.log, int(k)
		cs.bufs[k] = b
	}
	cs.log.bufs = cs.bufs[:]
	return cs
}

// Reset empties every per-core structure and forgets the execution
// history, returning the state a fresh NewCoreState would have while
// keeping each buffer's grown backing array for the next trial.
func (cs *CoreState) Reset() {
	cs.log.flush()
	cs.lastDomain = DomainNone
	cs.switches = 0
}

// Buffer returns the structure of the given per-core kind.
func (cs *CoreState) Buffer(k StructKind) *Buffer {
	if k.Shared() {
		panic(fmt.Sprintf("uarch: %v is not per-core", k))
	}
	return cs.bufs[k]
}

// LastDomain reports the domain that most recently executed on this core.
func (cs *CoreState) LastDomain() DomainID { return cs.lastDomain }

// DomainSwitches reports how many cross-domain context switches this core
// has observed — exactly the events core gapping eliminates.
func (cs *CoreState) DomainSwitches() uint64 { return cs.switches }

// Touch models domain d executing on the core: it fills per-core
// structures proportionally to footprint (0..1 of each structure's
// capacity), tagging secretFrac of new entries as secret-derived.
// tagSrc provides entry identities deterministically.
func (cs *CoreState) Touch(d DomainID, footprint, secretFrac float64, tagSrc *sim.Source) {
	if d != cs.lastDomain {
		if cs.lastDomain != DomainNone && d != DomainNone {
			cs.switches++
		}
		cs.lastDomain = d
	}
	if footprint <= 0 {
		return
	}
	if footprint > 1 {
		footprint = 1
	}
	// Append one lazy fill record for the whole batch, shared by every
	// structure, and advance the shared tag stream once. Stream
	// consumption is identical to the historical eager loop — buffers
	// fill in kind order, max(1, footprint × cap) entries each, one
	// Uint64 per entry (Float64+Uint64 when secret-tagged) — so every
	// later consumer of tagSrc sees exactly the state the eager fills
	// would have left, and materialization replays exactly the values
	// they would have written. Touch is the simulator's single hottest
	// loop (every execution slice on every core lands here, with up to
	// 16K entries for the L2). The record holds the stream's unresolved
	// anchor and lag and the footprint's shape, from which each buffer
	// reads its count and its offset in the batch. The batch's Skip
	// only adds to the lag, so Touch pays for no draws and no jump: the
	// jump is resolved only if something observes the stream or
	// materializes a fill. Nor does it charge any buffer: each charges
	// itself when it is next read.
	anchor, lag := tagSrc.Mark()
	drawsPer := uint64(1)
	frac := -1.0
	if secretFrac > 0 {
		drawsPer = 2
		frac = secretFrac
	}
	n := cs.log.push(fill{anchor: anchor, lag: lag, frac: frac, domain: d}, footprint)
	tagSrc.Skip(drawsPer * uint64(n))
}

// TouchN is n Touch calls in a row with the same arguments: it leaves
// the structures and the tag stream exactly as they would, paying for
// one footprint lookup instead of n.
func (cs *CoreState) TouchN(d DomainID, footprint, secretFrac float64, tagSrc *sim.Source, n int) {
	if n <= 0 {
		return
	}
	cs.Touch(d, footprint, secretFrac, tagSrc)
	if n--; n == 0 || footprint <= 0 {
		return
	}
	anchor, lag := tagSrc.Mark()
	drawsPer := uint64(1)
	frac := -1.0
	if secretFrac > 0 {
		drawsPer = 2
		frac = secretFrac
	}
	entries := cs.log.pushN(fill{anchor: anchor, lag: lag, frac: frac, domain: d}, min(footprint, 1), n, drawsPer)
	tagSrc.Skip(drawsPer * uint64(entries) * uint64(n))
}

// Warmth reports the fraction of per-core cache/TLB/predictor capacity
// currently holding d's entries, weighted toward the structures that
// dominate restart cost (L1, L2, TLBs). 1.0 means fully warm.
//
// The weights are summed in kind order, so repeated calls agree to the
// bit, and the table is static, so a call allocates nothing.
func (cs *CoreState) Warmth(d DomainID) float64 {
	var w, total float64
	for _, kw := range warmthWeights {
		w += kw.weight * cs.bufs[kw.kind].Occupancy(d)
		total += kw.weight
	}
	return w / total
}

// warmthWeights are Warmth's per-structure weights, in kind order.
var warmthWeights = [...]struct {
	kind   StructKind
	weight float64
}{
	{L1D, 0.25}, {L1I, 0.10}, {L2, 0.35}, {DTLB, 0.10}, {ITLB, 0.05},
	{BTB, 0.10}, {UopCache, 0.05},
}

// FlushAll architecturally flushes every per-core structure and returns
// the modelled time cost. This is the mitigation work a shared-core
// security monitor must perform on every world switch (§2.1: "flushing
// carries an inevitable cost").
func (cs *CoreState) FlushAll(costs FlushCosts) sim.Duration {
	var total sim.Duration
	for k := StructKind(0); k < sharedKindsStart; k++ {
		total += costs.Of(k)
	}
	cs.log.flush()
	return total
}

// FlushMitigations flushes only the structures targeted by deployed
// transient-execution mitigations (branch state, store/fill buffers,
// FPU state) — the verw/BHB-clear/FEDISABLE-style sequence — and
// returns its time cost.
func (cs *CoreState) FlushMitigations(costs FlushCosts) sim.Duration {
	var total sim.Duration
	for _, k := range mitigationKinds {
		cs.bufs[k].Flush()
		total += costs.Of(k)
	}
	return total
}

// mitigationKinds are the structures FlushMitigations flushes.
var mitigationKinds = [...]StructKind{BTB, RSB, StoreBuffer, FillBuffer, LoadPort, FPURegs, UopCache}

// ResidueFor reports, per structure, foreign entries visible to reader.
func (cs *CoreState) ResidueFor(reader DomainID) map[StructKind][]Entry {
	out := make(map[StructKind][]Entry)
	for k := StructKind(0); k < sharedKindsStart; k++ {
		if r := cs.bufs[k].Residue(reader); len(r) > 0 {
			out[k] = r
		}
	}
	return out
}

// FlushCosts gives the modelled per-structure flush latency.
type FlushCosts map[StructKind]sim.Duration

// Of reports the cost for kind k (0 when unspecified).
func (fc FlushCosts) Of(k StructKind) sim.Duration { return fc[k] }

// DefaultFlushCosts models a contemporary mitigation sequence. The values
// sum to the multi-microsecond world-switch overhead the paper observes
// for same-core monitor calls (Table 2: >12.8 µs including EL3 costs).
func DefaultFlushCosts() FlushCosts {
	return FlushCosts{
		L1D:         2 * sim.Microsecond,
		L1I:         800 * sim.Nanosecond,
		L2:          0, // not flushed in practice
		DTLB:        600 * sim.Nanosecond,
		ITLB:        400 * sim.Nanosecond,
		BTB:         900 * sim.Nanosecond,
		RSB:         100 * sim.Nanosecond,
		StoreBuffer: 200 * sim.Nanosecond,
		FillBuffer:  300 * sim.Nanosecond,
		LoadPort:    200 * sim.Nanosecond,
		FPURegs:     400 * sim.Nanosecond,
		UopCache:    300 * sim.Nanosecond,
		APICRegs:    0,
		Prefetch:    200 * sim.Nanosecond,
	}
}

// SharedState is the socket-level state shared by all cores.
type SharedState struct {
	llc         *Buffer
	llcLog      fillLog // the LLC's deferred fills, one record per TouchShared
	partitioned bool
	// wayOwner maps LLC way index -> domain when partitioning is enabled.
	wayOwner []DomainID
	staging  *Buffer
}

// NewSharedState returns socket state with an llcWays-way LLC and a
// CrossTalk-style staging buffer.
func NewSharedState(llcEntries, llcWays int) *SharedState {
	if llcWays <= 0 {
		llcWays = 16
	}
	ss := &SharedState{
		llc:      NewBuffer(LLC, llcEntries),
		llcLog:   fillLog{ways: llcWays},
		wayOwner: make([]DomainID, llcWays),
		staging:  NewBuffer(Staging, 32),
	}
	ss.llc.log = &ss.llcLog
	ss.llcLog.bufs = []*Buffer{ss.llc}
	return ss
}

// Reset empties the LLC and staging buffer, disables partitioning, and
// frees every way assignment — the state a fresh NewSharedState would
// have, minus the allocations.
func (ss *SharedState) Reset() {
	ss.llcLog.flush()
	ss.staging.Reset()
	ss.partitioned = false
	clear(ss.wayOwner)
}

// LLC returns the shared last-level cache.
func (ss *SharedState) LLC() *Buffer { return ss.llc }

// Staging returns the shared staging buffer (CrossTalk's channel).
func (ss *SharedState) Staging() *Buffer { return ss.staging }

// EnablePartitioning turns on way-partitioning of the LLC (the hardware
// cache-partitioning mitigation the paper recommends for the remaining
// cross-core cache channel, §2.4).
func (ss *SharedState) EnablePartitioning() { ss.partitioned = true }

// Partitioned reports whether LLC way-partitioning is enabled.
func (ss *SharedState) Partitioned() bool { return ss.partitioned }

// AssignWays gives n LLC ways to domain d; returns false, assigning
// nothing, when n is negative or fewer than n ways remain unassigned.
func (ss *SharedState) AssignWays(d DomainID, n int) bool {
	if n < 0 {
		return false
	}
	free := 0
	for _, o := range ss.wayOwner {
		if o == DomainNone {
			free++
		}
	}
	if free < n {
		return false
	}
	for i := range ss.wayOwner {
		if n == 0 {
			break
		}
		if ss.wayOwner[i] == DomainNone {
			ss.wayOwner[i] = d
			n--
		}
	}
	return true
}

// TouchShared models domain d filling shared structures: an LLC
// footprint of footprint × (capacity / ways) lines and, when
// usesStaging, one secret-tagged staging-buffer entry. It reports how
// many resident entries the fill evicted — the cross-domain side effect
// the PRIME+PROBE channel observes, surfaced so callers can count it.
//
// The LLC is modelled as one FIFO of lines shared by every domain, so
// evictions are counted against the whole LLC whether or not
// partitioning is enabled: partitioning acts only when the state is
// observed, through LLCObservable, which hides other domains' lines
// from a partitioned reader. (SetAssocCache models the way-confined
// placement itself.)
//
// The LLC fill is lazy, like Touch's: one fill record in the LLC's own
// log, anchored at the tag stream's mark, after which the stream skips
// the fill's n draws, so stream consumption and ring positions are
// exactly those of n eager Inserts.
func (ss *SharedState) TouchShared(d DomainID, footprint float64, usesStaging bool, tagSrc *sim.Source) (evicted int) {
	if footprint > 1 {
		footprint = 1
	}
	if n := ss.llcLog.count(footprint, ss.llc.cap); n > 0 {
		if free := ss.llc.cap - ss.llc.Len(); n > free {
			evicted = n - free
		}
		anchor, lag := tagSrc.Mark()
		ss.llcLog.push(fill{anchor: anchor, lag: lag, frac: -1, domain: d}, footprint)
		tagSrc.Skip(uint64(n))
	}
	if usesStaging {
		// Instructions like RDRAND/CPUID leave residue in the shared
		// staging buffer regardless of which core executed them.
		if ss.staging.Len() == ss.staging.Cap() {
			evicted++
		}
		ss.staging.Insert(Entry{Domain: d, Secret: true, Tag: tagSrc.Uint64()})
	}
	return evicted
}

// LLCObservable reports whether reader can observe domain owner's LLC
// footprint: always true without partitioning, never true with it
// (distinct domains never share ways once assigned).
func (ss *SharedState) LLCObservable(owner, reader DomainID) bool {
	if owner.Trusts(reader) {
		return true
	}
	return !ss.partitioned
}
