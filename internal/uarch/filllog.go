package uarch

// fill is one deferred bulk-fill batch: domain filling footprint of
// every buffer that shares the log. The batch's tags replay from anchor
// after lag draws, slot after slot. frac < 0 marks a plain fill (one
// draw per entry); >= 0 a secret fill (two). 64 bytes: one cache line.
type fill struct {
	anchor [4]uint64
	lag    uint64
	fp     float64
	frac   float64
	domain DomainID
}

// fillLog records the deferred fills of the buffers one batch fills: a
// core's per-core structures in kind order, or the LLC alone. A buffer's
// slot is its index in bufs. Records are addressed by absolute index;
// fills[0] is record base.
type fillLog struct {
	fills []fill
	base  uint64
	bufs  []*Buffer
	ways  int // the LLC's associativity; 0 for a per-core log
}

// count re-derives how many entries a fill of footprint fp writes into a
// buffer of capacity c: the exact float expression Touch (at least one
// entry per structure) or TouchShared (footprint of one way's share)
// sizes its fills with.
func (l *fillLog) count(fp float64, c int) int {
	if l.ways > 0 {
		return int(fp * float64(c) / float64(l.ways))
	}
	return max(1, int(fp*float64(c)))
}

// push appends f and reports the entries the batch writes across all
// of the log's buffers. Each buffer is charged its share: its pending
// count grows, and its Len/next advance to what replaying the fill
// would produce. A buffer with nothing pending starts its live fills at
// this record, at the ring position its materialized state ends at.
func (l *fillLog) push(f fill) (entries int) {
	if len(l.fills) == cap(l.fills) {
		l.compact()
	}
	idx := l.base + uint64(len(l.fills))
	l.fills = append(l.fills, f)
	for _, b := range l.bufs {
		n := l.count(f.fp, b.cap)
		entries += n
		if b.pend == 0 {
			b.vlen, b.vnext = len(b.entries), b.next
		}
		start := b.vlen
		if b.vlen == b.cap {
			start = b.vnext
		}
		if b.pend == 0 {
			b.oldest, b.oldestStart = idx, start
		}
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
	}
	return entries
}

// compact makes room for one more record. It retires every buffer's
// overwritten fills, then drops the records no buffer replays any more:
// in place when at least half the log is dead, so the copies amortize to
// O(1) per push, and otherwise into a new array twice the live length.
// The log therefore never holds more than twice the longest live span
// of any of its buffers, plus the record being pushed.
func (l *fillLog) compact() {
	keep := l.base + uint64(len(l.fills))
	for _, b := range l.bufs {
		if b.pend > 0 {
			b.retire()
			keep = min(keep, b.oldest)
		}
	}
	dead := int(keep - l.base)
	live := l.fills[dead:]
	if dead > 0 && 2*dead >= len(l.fills) {
		l.fills = l.fills[:copy(l.fills, live)]
	} else {
		grown := make([]fill, len(live), max(2*len(live), 1))
		copy(grown, live)
		l.fills = grown
	}
	l.base = keep
}

// reset drops every record. No buffer of the log may have fills pending.
func (l *fillLog) reset() {
	l.fills = l.fills[:0]
	l.base = 0
}
