package sim

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Source.Skip: deferred fast-forward of the xoshiro256** stream.
//
// Skip(k) does not move the stream; it adds k to the source's lag, the
// count of draws owed. The lag is paid when the stream is next observed
// (Uint64 and every draw method built on it, and State), by one jump of
// the summed lag; SetState and reseeding replace the state and drop it.
// A stream that is skipped over and over and never drawn from, as the
// µarch tag stream of every performance experiment is, therefore never
// pays for a jump at all.
//
// The jump itself rests on linearity: the xoshiro256** state transition
// (everything in Uint64 except the output scrambler) is linear over
// GF(2), so one step is a 256x256 bit-matrix T applied to the state
// vector, and advancing k draws is applying T^k. Small k takes a plain
// loop, which is cheaper below a few hundred draws. Larger k applies
// the cached T^(2^i) powers one by one (popcount(k) matrix-vector
// multiplies) or, once k has been seen, one memoized composite T^k. The
// memo is capped (jumpMemoMax), since a deferred k can be any
// accumulated sum.
//
// This is what makes lazy µarch fills (internal/uarch) exact and cheap:
// a batch of fills that would consume n tag draws — one Touch across a
// core's structures, or one LLC fill — records Mark(), the unresolved
// anchor state and lag, once, in one fill record its buffers share, and
// calls Skip(n). A buffer's draws start at the record's lag plus the
// draws of the buffers before it in the batch. Every later consumer of
// the shared stream sees precisely the state the draws would have
// produced, while a buffer's values are only materialized (by replay
// from the anchor) if an entry-level reader ever looks.

// xoMatrix is a 256x256 GF(2) matrix stored as 256 columns, each a
// 256-bit vector in 4 uint64 limbs: column i is M applied to unit
// vector e_i, so M·v = XOR of columns at v's set bits.
type xoMatrix [256][4]uint64

// xoStepState advances the xoshiro256** state by one draw without
// computing the (nonlinear, state-independent) output scrambler. It
// must stay exactly in sync with Source.Uint64.
func xoStepState(s [4]uint64) [4]uint64 {
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return s
}

func matVec(m *xoMatrix, v [4]uint64) (w [4]uint64) {
	for limb := 0; limb < 4; limb++ {
		rem := v[limb]
		base := limb << 6
		for rem != 0 {
			i := base + bits.TrailingZeros64(rem)
			rem &= rem - 1
			col := &m[i]
			w[0] ^= col[0]
			w[1] ^= col[1]
			w[2] ^= col[2]
			w[3] ^= col[3]
		}
	}
	return w
}

func matMul(a, b *xoMatrix) *xoMatrix {
	c := new(xoMatrix)
	for j := range b {
		c[j] = matVec(a, b[j])
	}
	return c
}

// xoPowers holds T^(2^i) for every i: built once, on the first jump
// that needs them, and read-only after, so a direct jump takes no lock.
// xoJumps memoizes the composite T^k for up to jumpMemoMax jump
// lengths; reads go through an atomically swapped immutable map, and
// only publishing a new entry takes xoMu.
var (
	xoPowersOnce sync.Once
	xoPowers     [64]*xoMatrix
	xoMu         sync.Mutex
	xoJumps      atomic.Pointer[map[uint64]*xoMatrix]
)

// skipLoopMax is the largest k a jump takes by stepping in a loop. A
// memoized matrix apply measures ~320ns against ~1.2ns per loop step
// (BenchmarkSkipResolve, BenchmarkSkipLoop on a 2-CPU x86-64 VM), so
// the crossover sits near 256 steps.
const skipLoopMax = 256

// jumpMemoMax caps the memo at 256 composites (8 KiB each). A memoized
// jump is one matrix-vector multiply (BenchmarkSkipResolve) where a
// direct one is popcount(k) of them (~1.7 µs at k = 20000,
// BenchmarkJumpDirect), and building a composite costs popcount(k)-1
// matrix products (~0.5 ms). The attack paths resolve 29 distinct
// lengths, about 40,000 jumps per attack-battery pass; without the memo
// that workload's median trial takes ~20% longer. Past the cap, lengths
// jump directly.
const jumpMemoMax = 256

// Skip advances the stream exactly k draws: every later observation
// sees the state k discarded Uint64 calls would have left. The jump is
// deferred until then, so Skip itself is one add.
func (s *Source) Skip(k uint64) { s.lag += k }

// Mark reports the stream as an anchor state and the draws deferred
// past it, without paying for the jump: the stream's true state is
// anchor advanced lag draws. A lazy reader replays from the anchor with
// SetState and Skip.
func (s *Source) Mark() (anchor [4]uint64, lag uint64) { return s.s, s.lag }

// resolve applies the deferred lag.
func (s *Source) resolve() {
	s.s = jump(s.s, s.lag)
	s.lag = 0
}

// jump returns st advanced k draws.
func jump(st [4]uint64, k uint64) [4]uint64 {
	if k <= skipLoopMax {
		s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
		for i := uint64(0); i < k; i++ {
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
		}
		return [4]uint64{s0, s1, s2, s3}
	}
	if m := xoJumps.Load(); m != nil {
		if j, ok := (*m)[k]; ok {
			return matVec(j, st)
		}
	}
	xoPowersOnce.Do(buildPowers)
	if j := memoize(k); j != nil {
		return matVec(j, st)
	}
	return jumpDirect(st, k)
}

// jumpDirect applies the cached powers T^(2^i) at k's set bits: one
// matrix-vector multiply each. xoPowers must be built.
func jumpDirect(st [4]uint64, k uint64) [4]uint64 {
	for rem := k; rem != 0; rem &= rem - 1 {
		st = matVec(xoPowers[bits.TrailingZeros64(rem)], st)
	}
	return st
}

// memoize builds T^k from the cached powers and publishes it, or
// returns nil when the memo is full.
func memoize(k uint64) *xoMatrix {
	if m := xoJumps.Load(); m != nil && len(*m) >= jumpMemoMax {
		return nil
	}
	var j *xoMatrix
	for rem := k; rem != 0; rem &= rem - 1 {
		if p := xoPowers[bits.TrailingZeros64(rem)]; j == nil {
			j = p
		} else {
			j = matMul(p, j)
		}
	}
	xoMu.Lock()
	defer xoMu.Unlock()
	// Another goroutine may have filled the memo meanwhile; j is exact
	// either way, it just goes unpublished.
	old := xoJumps.Load()
	next := make(map[uint64]*xoMatrix)
	if old != nil {
		if len(*old) >= jumpMemoMax {
			return j
		}
		for kk, vv := range *old {
			next[kk] = vv
		}
	}
	next[k] = j
	xoJumps.Store(&next)
	return j
}

// buildPowers fills xoPowers: T itself, then repeated squaring.
func buildPowers() {
	t := new(xoMatrix)
	for bit := 0; bit < 256; bit++ {
		var e [4]uint64
		e[bit>>6] = 1 << uint(bit&63)
		t[bit] = xoStepState(e)
	}
	xoPowers[0] = t
	for p := 1; p < len(xoPowers); p++ {
		xoPowers[p] = matMul(xoPowers[p-1], xoPowers[p-1])
	}
}

// State returns the stream state with any deferred skip applied, and
// SetState restores it (or an anchor from Mark) — the snapshot/replay
// hooks lazy fills use to re-derive their draws on materialization.
func (s *Source) State() [4]uint64 {
	if s.lag != 0 {
		s.resolve()
	}
	return s.s
}

// SetState overwrites the stream state, dropping any deferred skip.
func (s *Source) SetState(st [4]uint64) {
	s.s = st
	s.lag = 0
}
