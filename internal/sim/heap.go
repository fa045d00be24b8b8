package sim

// The engine's pending-event queue is two 4-ary min-heaps, ordered by
// (at, seq) so same-instant events fire FIFO. The heap replaces container/heap
// to keep the hot path free of interface boxing and indirect Less/Swap
// calls: tens of millions of events flow through push/pop per benchsuite
// run, and the comparison is two integer compares that the compiler can
// inline.
//
// A 4-ary layout halves the tree depth of a binary heap. Sift-down
// scans up to four children per level, but those nodes share at most
// two cache lines, so the trade wins on the pop-heavy workload of a
// discrete-event simulator.
//
// The queue keeps what is near apart from what is far (queue, below):
// the two-tier idea of Tang, Goh and Thng's ladder queue (ACM TOMACS
// 2005) in its simplest form.
//
// Fired and cancelled nodes are recycled through an engine-owned free
// list rather than garbage: in steady state At/After allocate nothing.
// Recycling is what makes the generation counter on event necessary —
// see Event in sim.go for the stale-handle story.

// event is the pooled, engine-owned queue node. External code never
// sees an *event; it holds an Event handle (node pointer + generation).
type event struct {
	at    Time
	seq   uint64
	gen   uint32 // bumped every time the node is recycled
	index int32  // heap position, -1 while not queued
	far   bool   // queued in the far tier
	fn    func()
	label string
}

// less orders the queue by time, breaking ties by schedule order so
// same-instant events fire FIFO.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// alloc takes a node from the free list, or mints one when the pool is
// dry (cold start, or more events pending at once than ever before).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle retires a fired or cancelled node to the free list. The
// generation bump invalidates every outstanding Event handle to the
// node, and dropping fn releases the callback's captures immediately.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.label = ""
	e.free = append(e.free, ev)
}

// farHorizon splits the queue: an event due more than farHorizon after
// the clock at the time it is queued waits in the far tier. The models'
// fires are dominated by deltas far below it (sub-µs IPI, world-switch
// and execution slices, the 5 µs tick), while each gapped vCPU's
// residual-exit timers (exponential, 19–189 ms means) are half of what
// fig6 -full keeps pending and fire 0.9% of its events; with those apart,
// a pop sifts through the few near events only. Measured with
// bench/run.sh, values from 10 µs to 1 ms could not be told apart, so the
// value is not tuned.
const farHorizon = 50 * Microsecond

// queue is the engine's pending set: a near and a far heap. An event
// stays in the tier it was queued in (it never migrates), and peek and
// pop compare the two tops with less, so the (at, seq) order is exactly
// that of one heap; the split only makes the near heap, where nearly all
// the pops happen, shallow.
type queue struct {
	near, far heapQueue
}

// peek reports the earliest queued node, or nil when empty.
func (q *queue) peek() *event {
	n, f := q.near.peek(), q.far.peek()
	if f != nil && (n == nil || less(f, n)) {
		return f
	}
	return n
}

// push queues ev in its tier, given the clock now.
func (q *queue) push(ev *event, now Time) {
	ev.far = ev.at-now > Time(farHorizon)
	if ev.far {
		q.far.push(ev)
	} else {
		q.near.push(ev)
	}
}

// popTop removes top, the node peek just reported.
func (q *queue) popTop(top *event) *event {
	if top.far {
		return q.far.pop()
	}
	return q.near.pop()
}

// remove unlinks a queued node (cancellation) from its tier.
func (q *queue) remove(ev *event) {
	if ev.far {
		q.far.remove(ev)
	} else {
		q.near.remove(ev)
	}
}

// heapQueue is one tier's 4-ary min-heap. push/pop/remove allocate nothing in
// steady state, and the backing array is kept across Engine.Reset so a
// pooled engine reaches steady state with no per-trial allocation.
type heapQueue struct {
	h []*event
}

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) push(ev *event) {
	q.h = append(q.h, ev)
	q.siftUp(len(q.h) - 1)
}

// pop removes and returns the minimum node of a non-empty heap.
func (q *heapQueue) pop() *event {
	h := q.h
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.h = h[:n]
	if n > 0 {
		h[0] = last
		last.index = 0
		q.siftDown(0)
	}
	top.index = -1
	return top
}

// remove unlinks a queued node (cancellation).
func (q *heapQueue) remove(ev *event) {
	i := int(ev.index)
	h := q.h
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	q.h = h[:n]
	if i < n {
		h[i] = last
		last.index = int32(i)
		q.siftDown(i)
		if int(last.index) == i {
			q.siftUp(i)
		}
	}
	ev.index = -1
}

func (q *heapQueue) siftUp(i int) {
	h := q.h
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !less(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

func (q *heapQueue) siftDown(i int) {
	h := q.h
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best, bv := first, h[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if cv := h[c]; less(cv, bv) {
				best, bv = c, cv
			}
		}
		if !less(bv, ev) {
			break
		}
		h[i] = bv
		bv.index = int32(i)
		i = best
	}
	h[i] = ev
	ev.index = int32(i)
}
