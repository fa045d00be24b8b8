package trace

import (
	"math"
	"math/bits"
)

// Recorder is a fixed-bucket log-linear (HDR-style) latency recorder: the
// streaming replacement for the exact sample-retaining histogram this
// package shipped before the windowed-metrics refactor.
//
// Values (int64 nanoseconds) are counted in buckets laid out in segments
// of 2^recSubBits sub-buckets. Segment 0 covers [0, 2^recSubBits) at
// 1 ns resolution — exact. Segment s >= 1 covers one power-of-two octave
// [2^(recSubBits+s-1), 2^(recSubBits+s)) with 2^recSubBits equal-width
// sub-buckets, so the quantization error of any recorded value is below
// one part in 2^recSubBits (~0.006%) of the value itself.
//
// Memory is bounded and deterministic: a segment's count page (2^recSubBits
// uint32 counters) is allocated the first time a value lands in it and is
// retained — zeroed in place — across Reset, so a recorder pooled across
// trials reaches a steady state with no allocations on the record path.
// The worst case (samples spanning every octave of the int64 range) is
// recSegments pages; in practice a latency distribution touches a handful.
//
// Count, Sum, Min and Max are tracked exactly alongside the buckets, and
// the sum of squares is accumulated as an exact 128-bit integer, so Mean
// and Stddev carry no binning error at all — only percentile queries see
// the bucket resolution, and those are clamped into [Min, Max].
type Recorder struct {
	count uint64
	sum   int64
	min   int64
	max   int64
	// 128-bit sum of squared values; exact for any realistic run
	// (overflow needs count * max^2 >= 2^128, i.e. centuries of
	// accumulated microsecond-scale samples).
	sqHi, sqLo uint64
	// segN[s] counts samples in segment s, so queries and Reset skip
	// untouched segments without scanning their pages.
	segN [recSegments]uint64
	seg  [recSegments][]uint32
}

const (
	// recSubBits fixes the resolution/footprint trade: 2^14 sub-buckets
	// per octave keep the relative quantization error of a percentile
	// below 2^-14 — far inside the rounding of every reported artifact
	// (tables print 2-4 significant digits) — at 64 KiB per touched
	// octave page.
	recSubBits  = 14
	recSubCount = 1 << recSubBits
	recSegments = 64 - recSubBits
)

// recBucket maps a value to its (segment, sub-bucket) pair. Negative
// values (not produced by the simulator, but accepted for robustness)
// land in bucket zero; their exact value still reaches min/sum/sumsq.
func recBucket(v int64) (int, int) {
	if v < recSubCount {
		if v < 0 {
			return 0, 0
		}
		return 0, int(v)
	}
	msb := bits.Len64(uint64(v)) - 1
	shift := uint(msb - recSubBits)
	return msb - recSubBits + 1, int(uint64(v)>>shift) - recSubCount
}

// recBucketValue is the largest value mapping to the bucket — the HDR
// "highest equivalent value", so nearest-rank percentiles never
// under-report a tail.
func recBucketValue(s, i int) int64 {
	if s == 0 {
		return int64(i)
	}
	shift := uint(s - 1)
	return (int64(recSubCount+i+1) << shift) - 1
}

// Record adds one value.
func (r *Recorder) Record(v int64) {
	r.count++
	r.sum += v
	if r.count == 1 {
		r.min, r.max = v, v
	} else if v < r.min {
		r.min = v
	} else if v > r.max {
		r.max = v
	}
	a := uint64(v)
	if v < 0 {
		a = uint64(-v)
	}
	hi, lo := bits.Mul64(a, a)
	var c uint64
	r.sqLo, c = bits.Add64(r.sqLo, lo, 0)
	r.sqHi += hi + c
	s, i := recBucket(v)
	page := r.seg[s]
	if page == nil {
		page = make([]uint32, recSubCount)
		r.seg[s] = page
	}
	page[i]++
	r.segN[s]++
}

// Count reports the number of recorded values.
func (r *Recorder) Count() uint64 { return r.count }

// Sum reports the exact total of all recorded values.
func (r *Recorder) Sum() int64 { return r.sum }

// Min reports the exact smallest recorded value (0 when empty).
func (r *Recorder) Min() int64 {
	if r.count == 0 {
		return 0
	}
	return r.min
}

// Max reports the exact largest recorded value (0 when empty).
func (r *Recorder) Max() int64 {
	if r.count == 0 {
		return 0
	}
	return r.max
}

// Mean reports the arithmetic mean (0 when empty).
func (r *Recorder) Mean() float64 {
	if r.count == 0 {
		return 0
	}
	return float64(r.sum) / float64(r.count)
}

// Percentile reports the nearest-rank p-th percentile (p in [0,100]).
// The answer is the highest value equivalent to the rank's bucket,
// clamped into [Min, Max]; its error versus the exact sample percentile
// is below one sub-bucket width (one part in 2^14 of the value).
func (r *Recorder) Percentile(p float64) int64 {
	if r.count == 0 {
		return 0
	}
	if p <= 0 {
		return r.min
	}
	if p >= 100 {
		return r.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(r.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for s := 0; s < recSegments; s++ {
		n := r.segN[s]
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		for i, c := range r.seg[s] {
			cum += uint64(c)
			if cum >= rank {
				v := recBucketValue(s, i)
				if v > r.max {
					v = r.max
				}
				if v < r.min {
					v = r.min
				}
				return v
			}
		}
	}
	return r.max
}

// variance is the exact sample variance, computed from the integer
// moments: with m the integer mean, S = sum((x-m)^2) is formed in 128-bit
// arithmetic (no cancellation against the large raw second moment), then
// the fractional-mean correction is applied in float64.
func (r *Recorder) variance() float64 {
	n := r.count
	if n < 2 {
		return 0
	}
	m := r.sum / int64(n)
	msum := mulI128(m, r.sum)
	nm2 := mulI128(m, m).mulU64(n)
	s128 := i128{r.sqHi, r.sqLo}.sub(msum).sub(msum).add(nm2)
	sf := s128.float()
	rem := r.sum - int64(n)*m // sum(x - m), exact, |rem| < n
	f := float64(rem) / float64(n)
	s2 := sf - 2*f*float64(rem) + float64(n)*f*f
	return s2 / float64(n-1)
}

// Stddev reports the sample standard deviation.
func (r *Recorder) Stddev() float64 {
	return math.Sqrt(r.variance())
}

// Reset empties the recorder in place: counters zero, every touched
// count page scrubbed but retained, so steady-state reuse (pooled trials,
// window rollover) allocates nothing.
func (r *Recorder) Reset() {
	r.count, r.sum, r.min, r.max = 0, 0, 0, 0
	r.sqHi, r.sqLo = 0, 0
	for s := 0; s < recSegments; s++ {
		if r.segN[s] != 0 {
			clear(r.seg[s])
			r.segN[s] = 0
		}
	}
}

// i128 is a two's-complement 128-bit integer, wide enough for the exact
// moment arithmetic above.
type i128 struct{ hi, lo uint64 }

func (a i128) add(b i128) i128 {
	lo, c := bits.Add64(a.lo, b.lo, 0)
	return i128{a.hi + b.hi + c, lo}
}

func (a i128) sub(b i128) i128 {
	lo, brw := bits.Sub64(a.lo, b.lo, 0)
	return i128{a.hi - b.hi - brw, lo}
}

// mulI128 is the exact signed product of two int64s.
func mulI128(a, b int64) i128 {
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = uint64(-a)
	}
	if b < 0 {
		ub = uint64(-b)
	}
	hi, lo := bits.Mul64(ua, ub)
	r := i128{hi, lo}
	if neg {
		r = i128{}.sub(r)
	}
	return r
}

// mulU64 multiplies by an unsigned 64-bit count, truncating above 2^128
// (unreachable for in-domain moments).
func (a i128) mulU64(b uint64) i128 {
	h1, l1 := bits.Mul64(a.lo, b)
	_, l2 := bits.Mul64(a.hi, b)
	return i128{h1 + l2, l1}
}

func (a i128) float() float64 {
	if a.hi>>63 != 0 {
		n := i128{}.sub(a)
		return -(float64(n.hi)*0x1p64 + float64(n.lo))
	}
	return float64(a.hi)*0x1p64 + float64(a.lo)
}
