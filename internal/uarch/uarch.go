// Package uarch models the microarchitectural state that transient-execution
// attacks exploit: per-core structures (L1 caches, TLBs, branch predictors,
// store buffers, line-fill buffers) and cross-core structures (last-level
// cache, the CPUID/RDRAND staging buffer of CrossTalk fame).
//
// The model is deliberately architectural rather than cycle-accurate: each
// structure is a bounded set of entries tagged with the security domain that
// created them and whether they are derived from secret data. This captures
// exactly the property the paper's security argument rests on — *which
// structures can hold another domain's state when code runs on a core* —
// while also supplying a warmth/pollution signal used by the performance
// model (cold microarchitectural state after host interference, §2.3).
package uarch

import (
	"fmt"

	"coregap/internal/sim"
)

// DomainID identifies a security domain: the untrusted host, the trusted
// monitor, or one confidential VM. Domains are the unit of distrust.
type DomainID int32

// Well-known domains. Guest domains are allocated from GuestBase upward.
const (
	DomainNone    DomainID = 0
	DomainHost    DomainID = 1
	DomainMonitor DomainID = 2
	GuestBase     DomainID = 100
)

// Guest returns the domain for guest (CVM) index i.
func Guest(i int) DomainID { return GuestBase + DomainID(i) }

// IsGuest reports whether d identifies a confidential VM.
func (d DomainID) IsGuest() bool { return d >= GuestBase }

func (d DomainID) String() string {
	switch {
	case d == DomainNone:
		return "none"
	case d == DomainHost:
		return "host"
	case d == DomainMonitor:
		return "monitor"
	case d.IsGuest():
		return fmt.Sprintf("guest%d", d-GuestBase)
	default:
		return fmt.Sprintf("domain%d", int32(d))
	}
}

// Trusts reports whether domain d trusts domain other to observe its
// microarchitectural residue. Every domain trusts itself and the monitor
// (which is attested and wipes its own state); nothing else is trusted.
func (d DomainID) Trusts(other DomainID) bool {
	return d == other || other == DomainMonitor
}

// StructKind identifies one microarchitectural structure class.
type StructKind int

// The structures the Fig. 3 vulnerabilities exploit. Kinds below
// sharedKindsStart are per-core; the rest are shared across cores.
const (
	L1D StructKind = iota
	L1I
	L2
	DTLB
	ITLB
	BTB // branch target buffer / branch history
	RSB // return stack buffer
	StoreBuffer
	FillBuffer // line-fill buffers (MDS family)
	LoadPort
	FPURegs   // FPU/SIMD register file (LazyFP, Zenbleed)
	UopCache  // micro-op cache
	APICRegs  // local APIC architectural/superqueue state (ÆPIC)
	Prefetch  // data-memory-dependent prefetcher state (Augury, GoFetch)
	LLC       // shared last-level cache
	Staging   // shared staging buffer for CPUID/RDRAND etc. (CrossTalk)
	Interconn // on-chip interconnect/mesh contention state
	numKinds
)

const sharedKindsStart = LLC

var kindNames = [...]string{
	L1D: "L1D", L1I: "L1I", L2: "L2", DTLB: "dTLB", ITLB: "iTLB",
	BTB: "BTB", RSB: "RSB", StoreBuffer: "store-buffer",
	FillBuffer: "fill-buffer", LoadPort: "load-port", FPURegs: "fpu-regs",
	UopCache: "uop-cache", APICRegs: "apic", Prefetch: "dmp-prefetcher",
	LLC: "LLC", Staging: "staging-buffer", Interconn: "interconnect",
}

func (k StructKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("struct(%d)", int(k))
}

// Shared reports whether the structure is shared across physical cores.
func (k StructKind) Shared() bool { return k >= sharedKindsStart }

// PerCoreKinds lists all per-core structure kinds.
func PerCoreKinds() []StructKind {
	kinds := make([]StructKind, 0, int(sharedKindsStart))
	for k := StructKind(0); k < sharedKindsStart; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

// SharedKinds lists all cross-core structure kinds.
func SharedKinds() []StructKind {
	kinds := make([]StructKind, 0, int(numKinds-sharedKindsStart))
	for k := sharedKindsStart; k < numKinds; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

// Entry is one tagged slot of a structure.
type Entry struct {
	Domain DomainID
	Secret bool   // derived from data the owning domain considers secret
	Tag    uint64 // opaque identity (address bits, branch PC, ...)
}

// Buffer is a bounded structure holding tagged entries with FIFO
// replacement. FIFO (rather than LRU) keeps the model simple; replacement
// policy does not affect any security verdict, only warmth decay shape.
//
// Bulk fills — Touch's per-core fills and TouchShared's LLC fill — are
// LAZY. One batch appends one fill record to the fillLog its buffers
// share (a core's per-core structures, or the LLC alone): the domain,
// the footprint's shape, the secret fraction, and where the batch's tags
// start in the shared tag stream — an anchor state from Source.Mark plus
// the draws past it. The filler only defers the batch's draws with
// Source.Skip, so neither the per-entry draws nor the jump over them
// happen at fill time, and the push charges no buffer: a buffer charges
// itself for every record pushed since it last looked, in one step, when
// a reader next asks it (sync). A buffer reads its entry count for a fill
// and its draw offset inside the fill from the record's shape. The
// entries are built only if an entry-level reader — Residue, Insert —
// ever looks: materialize replays each live fill from its anchor and
// reconstructs entries byte-identically to the eager fill. Aggregate
// readers — Len, CountDomain, Occupancy, and through them Warmth — are
// answered from ring-interval arithmetic over the fills without
// materializing, which is what removes the fill loops from the
// simulator's hottest path. SecretCount is answered the same way while
// every live fill is plain (plain fills hold no secrets).
type Buffer struct {
	kind    StructKind
	cap     int
	entries []Entry // materialized prefix; ring position == index
	next    int     // FIFO replacement cursor of the materialized prefix

	// The buffer has been charged for the log's records before seen:
	// charged entries in all, the log's written count for its slot at
	// that point. Charged fills are the log's records from absolute
	// index oldest on (or from the log's base, once compaction has
	// dropped older ones). Records that later fills have fully
	// overwritten are retired (oldest advanced past them) lazily, by
	// retire. While pend > 0 the buffer's true state is (entries, next)
	// with every fill from oldest on replayed on top; vlen and vnext
	// track the Len/next that replay would produce.
	log     *fillLog
	slot    int // index among the log's buffers
	seen    uint64
	charged uint64
	oldest  uint64
	pend    int // total entries across fills from oldest on
	vlen    int
	vnext   int
}

// NewBuffer returns an empty buffer of the given capacity.
func NewBuffer(kind StructKind, capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("uarch: buffer %v with capacity %d", kind, capacity))
	}
	return &Buffer{kind: kind, cap: capacity}
}

// Cap reports the entry capacity.
func (b *Buffer) Cap() int { return b.cap }

// Len reports the number of valid entries.
func (b *Buffer) Len() int {
	b.sync()
	if b.pend > 0 {
		return b.vlen
	}
	return len(b.entries)
}

// Insert adds an entry, evicting the oldest when full. It reports the
// evicted entry (Domain == DomainNone when nothing was evicted).
func (b *Buffer) Insert(e Entry) (evicted Entry) {
	b.sync()
	if b.pend > 0 {
		b.materialize()
	}
	if len(b.entries) < b.cap {
		b.entries = append(b.entries, e)
		return Entry{}
	}
	evicted = b.entries[b.next]
	b.entries[b.next] = e
	// Conditional wrap, not %: this runs ~1e9 times per benchsuite run
	// and an integer divide dominated the whole simulator's profile.
	b.next++
	if b.next == b.cap {
		b.next = 0
	}
	return evicted
}

// CountDomain reports how many entries belong to d. With fills pending
// it is answered from fill arithmetic: walking from the newest fill
// back, each fill's surviving entry count is its length capped by the
// ring space the newer fills left, and the walk stops at the first
// fully overwritten fill. Base entries count only where the fills'
// combined write window has not overwritten them.
func (b *Buffer) CountDomain(d DomainID) int {
	n := 0
	b.sync()
	if b.pend > 0 {
		l := b.log
		newer := 0
		for i := len(l.fills) - 1; i >= b.firstLive() && newer < b.cap; i-- {
			f := &l.fills[i]
			fn := int(l.shapes[f.shape].n[b.slot])
			if f.domain == d {
				n += min(fn, b.cap-newer)
			}
			newer += fn
		}
		wstart, covered := b.window()
		for p, e := range b.entries {
			if e.Domain != d {
				continue
			}
			off := p - wstart
			if off < 0 {
				off += b.cap
			}
			if off >= covered {
				n++
			}
		}
		return n
	}
	for _, e := range b.entries {
		if e.Domain == d {
			n++
		}
	}
	return n
}

// window reports the ring interval the pending fills write over, as its
// start position and length: a base entry at position p survives the
// replay exactly when (p - wstart) mod cap >= covered.
func (b *Buffer) window() (wstart, covered int) {
	covered = b.pend
	if covered > b.cap {
		covered = b.cap
	}
	wstart = b.vnext - covered
	if b.vlen < b.cap {
		// Still in the append phase: the fills occupy the tail
		// [vlen-covered, vlen) and never wrapped over the base.
		wstart = b.vlen - covered
	}
	if wstart < 0 {
		wstart += b.cap
	}
	return wstart, covered
}

// SecretCount reports how many of d's entries are secret-tagged. Plain
// fills hold no secrets, so while every live fill is plain it counts
// only the base entries outside the fills' write window, as CountDomain
// does; a pending secret fill is materialized first. It never allocates
// once the buffer's entries have grown to its capacity.
func (b *Buffer) SecretCount(d DomainID) int {
	wstart, covered := 0, 0
	b.sync()
	if b.pend > 0 {
		b.retire()
		l := b.log
		for i := int(b.oldest - l.base); i < len(l.fills); i++ {
			if l.fills[i].frac >= 0 {
				b.materialize()
				break
			}
		}
		if b.pend > 0 {
			wstart, covered = b.window()
		}
	}
	n := 0
	for p, e := range b.entries {
		if e.Domain != d || !e.Secret {
			continue
		}
		off := p - wstart
		if off < 0 {
			off += b.cap
		}
		if off >= covered {
			n++
		}
	}
	return n
}

// Occupancy reports the fraction of capacity holding d's entries.
func (b *Buffer) Occupancy(d DomainID) float64 {
	return float64(b.CountDomain(d)) / float64(b.cap)
}

// Residue reports all entries whose owner does not trust reader — i.e. the
// foreign state a transient-execution primitive run by reader could sample.
func (b *Buffer) Residue(reader DomainID) []Entry {
	b.sync()
	if b.pend > 0 {
		b.materialize()
	}
	var out []Entry
	for _, e := range b.entries {
		if e.Domain != DomainNone && !e.Domain.Trusts(reader) {
			out = append(out, e)
		}
	}
	return out
}

// SecretResidue reports foreign entries that are secret-tagged.
func (b *Buffer) SecretResidue(reader DomainID) []Entry {
	var out []Entry
	for _, e := range b.Residue(reader) {
		if e.Secret {
			out = append(out, e)
		}
	}
	return out
}

// Flush removes all entries (architectural flush, e.g. verw/DSB-style).
// Pending fills, charged or not, are dropped unmaterialized — their tag
// draws were consumed from the stream at fill time, exactly as an eager
// fill's would have been. The fill records stay in the log for the
// buffers that share it; this buffer's charge point moves to the log's
// end, so its next fill starts a new oldest.
func (b *Buffer) Flush() {
	b.clear()
	if l := b.log; l != nil {
		b.seen, b.charged = l.end(), l.written(b.slot)
	}
}

// clear drops every entry and pending fill; the charge point stays.
func (b *Buffer) clear() {
	b.entries = b.entries[:0]
	b.next = 0
	b.pend = 0
	b.vlen = 0
	b.vnext = 0
}

// Reset empties the buffer for reuse across trials. The entries slice
// keeps its grown capacity, so a pooled buffer refills without
// reallocating; the observable state is identical to a fresh buffer.
func (b *Buffer) Reset() { b.Flush() }

// sync charges the buffer for the log's records pushed since it was
// last charged, in one step: the T entries they wrote into its slot,
// the log's written count less the one last charged. Len grows by T up
// to the capacity and the write cursor moves T positions around the
// ring, exactly where T single-entry Inserts would leave them. A buffer
// with nothing pending starts its live fills at the first uncharged
// record.
func (b *Buffer) sync() {
	l := b.log
	if l == nil || b.seen == l.end() {
		return
	}
	w := l.written(b.slot)
	t := int(w - b.charged)
	if b.pend == 0 {
		b.vlen, b.vnext = len(b.entries), b.next
		b.oldest = b.seen
	}
	cursor := b.vnext
	if b.vlen < b.cap {
		cursor = b.vlen
	}
	b.seen, b.charged = l.end(), w
	b.pend += t
	if b.vlen+t >= b.cap {
		b.vlen = b.cap
		b.vnext = (cursor + t) % b.cap
	} else {
		b.vlen += t
		b.vnext = 0
	}
}

// firstLive reports the position in the log's records of the oldest
// fill still charged to the buffer. Compaction drops records that every
// buffer has overwritten without moving oldest, so oldest may lie
// before the log's base.
func (b *Buffer) firstLive() int {
	return int(max(b.oldest, b.log.base) - b.log.base)
}

// retire advances oldest past the fills that everything recorded after
// them has fully overwritten: their entries will never be observed, and
// the draws they consumed are already accounted for in the stream. It
// walks back from the newest fill until the fills it has passed cover
// the ring, so its cost is the live span, not the number of fills
// retired; the fill where the walk stops is the oldest one kept, and it
// starts that many entries before the cursor the newest fill left: it
// reports that ring position. Retirement is deferred to the readers that
// replay (materialize, SecretCount), so a fill costs no read of an older
// record.
func (b *Buffer) retire() (start int) {
	l := b.log
	i, kept := len(l.fills)-1, 0
	for lo := b.firstLive(); ; i-- {
		kept += int(l.shapes[l.fills[i].shape].n[b.slot])
		if kept >= b.cap || i == lo {
			break
		}
	}
	cursor := b.vnext
	if b.vlen < b.cap {
		cursor = b.vlen
	}
	b.oldest, b.pend = l.base+uint64(i), kept
	for start = cursor - kept; start < 0; {
		start += b.cap
	}
	return start
}

// materialize replays every live fill, reconstructing the exact entries
// an eager fill would have produced: each fill's tag stream is restored
// from its recorded anchor, advanced by its lag plus the draws of the
// slots before this buffer's (the shape's prefix, resolved by the first
// draw), and the buffer's entries written from the ring position where
// the previous fill stopped. Retired fills are not replayed; the entries
// they wrote are provably overwritten by the live ones. The buffer must
// be charged (sync) first.
func (b *Buffer) materialize() {
	pos := b.retire()
	for len(b.entries) < b.vlen {
		b.entries = append(b.entries, Entry{})
	}
	l := b.log
	for i := b.firstLive(); i < len(l.fills); i++ {
		f := &l.fills[i]
		sh := &l.shapes[f.shape]
		skip, n := uint64(sh.pre[b.slot]), int(sh.n[b.slot])
		var s sim.Source
		s.SetState(f.anchor)
		if f.frac < 0 {
			s.Skip(f.lag + skip)
			for j := 0; j < n; j++ {
				b.entries[pos] = Entry{Domain: f.domain, Tag: s.Uint64()}
				pos++
				if pos == b.cap {
					pos = 0
				}
			}
		} else {
			s.Skip(f.lag + 2*skip)
			for j := 0; j < n; j++ {
				secret := s.Float64() < f.frac
				b.entries[pos] = Entry{Domain: f.domain, Secret: secret, Tag: s.Uint64()}
				pos++
				if pos == b.cap {
					pos = 0
				}
			}
		}
	}
	b.next = b.vnext
	b.pend = 0
}
