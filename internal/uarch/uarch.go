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
// LAZY: each is recorded as a fillRun holding the domain, the count, and
// where its tags start in the shared tag stream — an anchor state from
// Source.Mark plus the number of draws past it. The filler only defers
// those draws with Source.Skip, so neither the per-entry draws nor the
// jump over them happen at fill time. The entries are built only if an
// entry-level reader — Residue, Insert, FlushDomain — ever looks:
// materialize replays each run from its anchor and reconstructs entries
// byte-identically to the eager fill. Aggregate readers — Len, CountDomain, Occupancy, and through them
// Warmth — are answered from ring-interval arithmetic over the runs
// without materializing, which is what removes the fill loops from the
// simulator's hottest path. SecretCount is answered the same way while
// every live run is plain (plain runs hold no secrets).
type Buffer struct {
	kind    StructKind
	cap     int
	entries []Entry // materialized prefix; ring position == index
	next    int     // FIFO replacement cursor of the materialized prefix

	// Deferred fills, oldest first, are runs[head:]; runs[:head] are
	// dead (fully overwritten) and are compacted away by pushFill.
	// While pend > 0 the buffer's true state is (entries, next) with
	// every live run replayed on top; vlen and vnext track the Len/next
	// that replay would produce.
	runs  []fillRun
	head  int
	pend  int // total entries across live runs
	vlen  int
	vnext int
}

// fillRun is one deferred bulk fill: n entries by domain, whose tags
// replay from anchor src after skip draws (the stream's lag when the
// Touch began plus the draws of earlier runs in the same batch).
// secretFrac < 0 marks a plain fill (one draw per entry); >= 0 a
// secret fill (two).
type fillRun struct {
	src        [4]uint64
	skip       uint64
	n          int32
	start      int32 // ring cursor where the run's first entry lands
	domain     DomainID
	secretFrac float64
}

// live returns the runs that have not been overwritten.
func (b *Buffer) live() []fillRun { return b.runs[b.head:] }

// NewBuffer returns an empty buffer of the given capacity.
func NewBuffer(kind StructKind, capacity int) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("uarch: buffer %v with capacity %d", kind, capacity))
	}
	return &Buffer{kind: kind, cap: capacity}
}

// Kind reports the structure class.
func (b *Buffer) Kind() StructKind { return b.kind }

// Cap reports the entry capacity.
func (b *Buffer) Cap() int { return b.cap }

// Len reports the number of valid entries.
func (b *Buffer) Len() int {
	if b.pend > 0 {
		return b.vlen
	}
	return len(b.entries)
}

// Insert adds an entry, evicting the oldest when full. It reports the
// evicted entry (Domain == DomainNone when nothing was evicted).
func (b *Buffer) Insert(e Entry) (evicted Entry) {
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
// it is answered from run arithmetic: each run's surviving entry count
// is its length minus however much the entries written after it wrapped
// around the ring into it, and base entries count only where the runs'
// combined write window has not overwritten them.
func (b *Buffer) CountDomain(d DomainID) int {
	n := 0
	if b.pend > 0 {
		newer := 0
		runs := b.live()
		for i := len(runs) - 1; i >= 0; i-- {
			r := &runs[i]
			vis := int(r.n)
			if over := newer - (b.cap - vis); over > 0 {
				vis -= over
			}
			if vis > 0 && r.domain == d {
				n += vis
			}
			newer += int(r.n)
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

// window reports the ring interval the live runs write over, as its
// start position and length: a base entry at position p survives the
// replay exactly when (p - wstart) mod cap >= covered.
func (b *Buffer) window() (wstart, covered int) {
	covered = b.pend
	if covered > b.cap {
		covered = b.cap
	}
	wstart = b.vnext - covered
	if b.vlen < b.cap {
		// Still in the append phase: the runs occupy the tail
		// [vlen-covered, vlen) and never wrapped over the base.
		wstart = b.vlen - covered
	}
	if wstart < 0 {
		wstart += b.cap
	}
	return wstart, covered
}

// SecretCount reports how many of d's entries are secret-tagged. Plain
// runs hold no secrets, so while every live run is plain it counts only
// the base entries outside the runs' write window, as CountDomain does;
// a pending secret run is materialized first. It never allocates once
// the buffer's entries have grown to its capacity.
func (b *Buffer) SecretCount(d DomainID) int {
	for _, r := range b.live() {
		if r.secretFrac >= 0 {
			b.materialize()
			break
		}
	}
	wstart, covered := 0, 0
	if b.pend > 0 {
		wstart, covered = b.window()
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
// Pending fills are dropped unmaterialized — their tag draws were
// consumed from the stream at fill time, exactly as an eager fill's
// would have been.
func (b *Buffer) Flush() {
	b.entries = b.entries[:0]
	b.next = 0
	b.runs = b.runs[:0]
	b.head = 0
	b.pend = 0
	b.vlen = 0
	b.vnext = 0
}

// Reset empties the buffer for reuse across trials. The entries slice
// keeps its grown capacity, so a pooled buffer refills without
// reallocating; the observable state is identical to a fresh buffer.
func (b *Buffer) Reset() { b.Flush() }

// FlushDomain removes entries belonging to d, preserving others.
func (b *Buffer) FlushDomain(d DomainID) {
	if b.pend > 0 {
		b.materialize()
	}
	kept := b.entries[:0]
	for _, e := range b.entries {
		if e.Domain != d {
			kept = append(kept, e)
		}
	}
	b.entries = kept
	if b.next > len(b.entries) {
		b.next = 0
	}
	if len(b.entries) < b.cap {
		b.next = 0
	}
}

// pushFill records a deferred bulk fill of n entries by domain d whose
// tags derive from anchor state src after skip draws. The caller is
// responsible for advancing the live stream (Source.Skip) by exactly
// the draws the fill would have consumed.
func (b *Buffer) pushFill(d DomainID, n int, secretFrac float64, src [4]uint64, skip uint64) {
	if b.pend == 0 {
		b.vlen, b.vnext = len(b.entries), b.next
	}
	start := b.vlen
	if b.vlen == b.cap {
		start = b.vnext
	}
	// Compact only when append would otherwise grow the slice, and only
	// when at least half of it is dead, so the copies amortize to O(1)
	// per fill; otherwise let append grow it.
	if len(b.runs) == cap(b.runs) && b.head > 0 && 2*b.head >= len(b.runs) {
		b.runs = b.runs[:copy(b.runs, b.live())]
		b.head = 0
	}
	b.runs = append(b.runs, fillRun{
		src: src, skip: skip, n: int32(n), start: int32(start),
		domain: d, secretFrac: secretFrac,
	})
	b.pend += n
	if b.vlen += n; b.vlen >= b.cap {
		b.vlen = b.cap
		b.vnext = start + n
		for b.vnext >= b.cap {
			b.vnext -= b.cap
		}
	} else {
		b.vnext = 0
	}
	// Slide the window: runs fully overwritten by everything recorded
	// after them will never be observed, so retire them (and their
	// replay cost) now by advancing head. The draws they consumed are
	// already accounted for in the stream.
	for b.head < len(b.runs)-1 && b.pend-int(b.runs[b.head].n) >= b.cap {
		b.pend -= int(b.runs[b.head].n)
		b.head++
	}
}

// materialize replays every live run, reconstructing the exact entries
// an eager fill would have produced: each run's tag stream is restored
// from its recorded anchor, advanced by its recorded skip (resolved by
// the first draw), and its entries written at their recorded ring
// positions. Runs retired by the sliding window are not replayed; the
// entries they wrote are provably overwritten by the live runs.
func (b *Buffer) materialize() {
	for len(b.entries) < b.vlen {
		b.entries = append(b.entries, Entry{})
	}
	runs := b.live()
	for ri := range runs {
		r := &runs[ri]
		var s sim.Source
		s.SetState(r.src)
		s.Skip(r.skip)
		pos := int(r.start)
		if r.secretFrac < 0 {
			for i := 0; i < int(r.n); i++ {
				b.entries[pos] = Entry{Domain: r.domain, Tag: s.Uint64()}
				pos++
				if pos == b.cap {
					pos = 0
				}
			}
		} else {
			for i := 0; i < int(r.n); i++ {
				secret := s.Float64() < r.secretFrac
				b.entries[pos] = Entry{Domain: r.domain, Secret: secret, Tag: s.Uint64()}
				pos++
				if pos == b.cap {
					pos = 0
				}
			}
		}
	}
	b.next = b.vnext
	b.runs = b.runs[:0]
	b.head = 0
	b.pend = 0
}
