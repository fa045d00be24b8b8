package uarch

import "math"

// fill is one deferred bulk-fill batch: domain filling one footprint of
// every buffer that shares the log. shape indexes the log's record of
// that footprint. The batch's tags replay from anchor after lag draws,
// slot after slot. frac < 0 marks a plain fill (one draw per entry);
// >= 0 a secret fill (two).
type fill struct {
	anchor [4]uint64
	lag    uint64
	frac   float64
	shape  int32
	domain DomainID
}

// shape is the log's record of one distinct footprint: the entries a
// fill of it writes into each slot's buffer (n), the entries it writes
// into the slots before (pre, the slot's draw offset in the batch),
// their total, and cover, the least n/cap over the slots as a fraction
// of 2^32 rounded down. Records whose covers sum to 2^32 overwrite the
// whole ring of every buffer of the log. pushed counts the records of
// the shape the log has taken.
type shape struct {
	key    uint64 // math.Float64bits of the footprint
	n      [sharedKindsStart]int32
	pre    [sharedKindsStart]int32
	total  int
	cover  uint64
	pushed uint64
	renum  int32 // rebuild's new index for the shape; -1 drops it
}

// fillLog records the deferred fills of the buffers one batch fills: a
// core's per-core structures in kind order, or the LLC alone. A buffer's
// slot is its index in bufs. Records are addressed by absolute index;
// fills[0] is record base.
//
// A push charges no buffer: it only counts the record against its
// shape. Each buffer charges itself for the entries written into its
// slot since it last looked when a reader next asks it (Buffer.sync).
type fillLog struct {
	fills  []fill
	base   uint64
	bufs   []*Buffer
	ways   int // the LLC's associativity; 0 for a per-core log
	shapes []shape
	// folded holds, per slot, the entries written by the records of
	// shapes since dropped from the table.
	folded [sharedKindsStart]uint64
}

// end is the absolute index the next record will take.
func (l *fillLog) end() uint64 { return l.base + uint64(len(l.fills)) }

// written reports how many entries the log's records have ever written
// into slot's buffer.
func (l *fillLog) written(slot int) uint64 {
	w := l.folded[slot]
	for s := range l.shapes {
		w += l.shapes[s].pushed * uint64(l.shapes[s].n[slot])
	}
	return w
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

// shapeOf reports the index of footprint fp's shape, adding it to the
// table when fp is new. Footprints are keyed by their bits, so a NaN
// footprint finds its own shape. A full table is rebuilt before it
// grows, so it only grows when every shape in it is live.
func (l *fillLog) shapeOf(fp float64) int32 {
	key := math.Float64bits(fp)
	for i := range l.shapes {
		if l.shapes[i].key == key {
			return int32(i)
		}
	}
	if len(l.shapes) == cap(l.shapes) {
		l.rebuild()
	}
	sh := shape{key: key}
	// The least n/cap so far, compared without dividing; 1/0 stands for
	// infinity.
	leastN, leastCap := 1, 0
	for i, b := range l.bufs {
		n := l.count(fp, b.cap)
		sh.n[i], sh.pre[i] = int32(n), int32(sh.total)
		sh.total += n
		if n*leastCap < leastN*b.cap {
			leastN, leastCap = n, b.cap
		}
	}
	sh.cover = uint64(leastN) << 32 / uint64(leastCap)
	l.shapes = append(l.shapes, sh)
	return int32(len(l.shapes) - 1)
}

// push appends f as a fill of footprint fp and reports the entries the
// batch writes across all of the log's buffers. It touches no buffer.
func (l *fillLog) push(f fill, fp float64) (entries int) {
	f.shape = l.shapeOf(fp)
	if len(l.fills) == cap(l.fills) {
		l.compact()
	}
	l.fills = append(l.fills, f)
	sh := &l.shapes[f.shape]
	sh.pushed++
	return sh.total
}

// compact makes room for one more record. It drops the records that
// every buffer has overwritten (deadPrefix) without asking any buffer:
// in place when at least half the log is dead, so the copies amortize to
// O(1) per push, and otherwise into a new array twice the live length.
// The log therefore never holds more than twice its longest cover span,
// plus the record being pushed.
func (l *fillLog) compact() {
	dead := l.deadPrefix()
	if dead > 0 && 2*dead >= len(l.fills) {
		l.drop(dead)
		return
	}
	live := l.fills[dead:]
	grown := make([]fill, len(live), max(2*len(live), 1))
	copy(grown, live)
	l.fills = grown
	l.base += uint64(dead)
}

// deadPrefix reports how many of the oldest records are overwritten in
// every buffer. Walking back from the newest record, it sums covers until
// they reach one ring; every record older than that point is dead.
func (l *fillLog) deadPrefix() int {
	dead := len(l.fills)
	for sum := uint64(0); dead > 0 && sum < 1<<32; {
		dead--
		sum += l.shapes[l.fills[dead].shape].cover
	}
	return dead
}

// drop discards the n oldest records in place.
func (l *fillLog) drop(n int) {
	l.fills = l.fills[:copy(l.fills, l.fills[n:])]
	l.base += uint64(n)
}

// rebuild drops the dead records and then every shape no live record
// uses, folding the entries its records wrote into the per-slot totals,
// so written, and with it every buffer's charge, is unchanged. The
// shapes kept are renumbered in table order. No buffer is touched.
func (l *fillLog) rebuild() {
	l.drop(l.deadPrefix())
	for s := range l.shapes {
		l.shapes[s].renum = -1
	}
	for i := range l.fills {
		l.shapes[l.fills[i].shape].renum = 0
	}
	n := int32(0)
	for s := range l.shapes {
		sh := &l.shapes[s]
		if sh.renum < 0 {
			for slot := range l.bufs {
				l.folded[slot] += sh.pushed * uint64(sh.n[slot])
			}
			continue
		}
		sh.renum = n
		n++
	}
	for i := range l.fills {
		f := &l.fills[i]
		f.shape = l.shapes[f.shape].renum
	}
	for s := range l.shapes {
		if r := l.shapes[s].renum; r >= 0 && int(r) != s {
			l.shapes[r] = l.shapes[s]
		}
	}
	l.shapes = l.shapes[:n]
}

// flush empties every buffer of the log and drops every record. With
// nothing left to charge, the entry counts restart at zero.
func (l *fillLog) flush() {
	l.drop(len(l.fills))
	for s := range l.shapes {
		l.shapes[s].pushed = 0
	}
	clear(l.folded[:])
	for _, b := range l.bufs {
		b.clear()
		b.seen, b.charged = l.end(), 0
	}
}
