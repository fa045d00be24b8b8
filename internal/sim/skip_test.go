package sim

import (
	"sync"
	"testing"
)

// TestSkipMatchesDraws: Skip(k) must leave the stream in exactly the
// state k discarded draws would, across the loop/matrix crossover and
// for awkward k (powers of two, primes, the fill sizes the µarch
// models actually use).
func TestSkipMatchesDraws(t *testing.T) {
	ks := []uint64{0, 1, 2, 3, 7, 63, 64, 65, 255, 256, 257, 511, 1000,
		1024, 2048, 4096, 12007, 16384, 32768, 100000, 1 << 20}
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		for _, k := range ks {
			slow := NewSource(seed)
			for i := uint64(0); i < k; i++ {
				slow.Uint64()
			}
			fast := NewSource(seed)
			fast.Skip(k)
			if g, w := fast.State(), slow.State(); g != w {
				t.Fatalf("seed %#x k=%d: Skip state %x, draws state %x", seed, k, g, w)
			}
			// The next draws must agree too (catches output-path bugs).
			for i := 0; i < 4; i++ {
				if g, w := fast.Uint64(), slow.Uint64(); g != w {
					t.Fatalf("seed %#x k=%d draw %d: %x != %x", seed, k, i, g, w)
				}
			}
		}
	}
}

// TestSkipComposes: Skip(a) then Skip(b) equals Skip(a+b), whether or
// not the stream is observed in between — the property Touch relies on
// when its batches' skips pile up into one deferred lag.
func TestSkipComposes(t *testing.T) {
	a, b := uint64(1234), uint64(876543)
	x := NewSource(9)
	x.Skip(a)
	x.Skip(b)
	y := NewSource(9)
	y.Skip(a + b)
	z := NewSource(9)
	z.Skip(a)
	z.State() // resolve a alone
	z.Skip(b)
	if x.State() != y.State() || z.State() != y.State() {
		t.Fatalf("Skip(%d)+Skip(%d) != Skip(%d)", a, b, a+b)
	}
	for i := 0; i < 4; i++ {
		if gx, gy, gz := x.Uint64(), y.Uint64(), z.Uint64(); gx != gy || gz != gy {
			t.Fatalf("draw %d: %x %x %x", i, gx, gy, gz)
		}
	}
}

// TestSkipDefers: Skip only records the lag — Mark reports the untouched
// anchor and the summed lag — and every observer resolves it: a draw,
// State, and SetState (which drops it along with the old state).
func TestSkipDefers(t *testing.T) {
	s := NewSource(11)
	anchor := s.State()
	s.Skip(300)
	s.Skip(5000)
	if a, lag := s.Mark(); a != anchor || lag != 5300 {
		t.Fatalf("Mark() = %x, %d; want %x, 5300", a, lag, anchor)
	}
	ref := NewSource(11)
	for i := 0; i < 5300; i++ {
		ref.Uint64()
	}
	if g, w := s.Uint64(), ref.Uint64(); g != w {
		t.Fatalf("first draw after deferred skip: %x, want %x", g, w)
	}
	if _, lag := s.Mark(); lag != 0 {
		t.Fatalf("lag %d after a draw, want 0", lag)
	}
	s.Skip(777)
	s.SetState(anchor)
	if a, lag := s.Mark(); a != anchor || lag != 0 {
		t.Fatalf("SetState kept lag %d", lag)
	}
}

// clearJumpMemo empties the process-wide memo and returns a func
// restoring it.
func clearJumpMemo() func() {
	memo := xoJumps.Load()
	xoJumps.Store(nil)
	return func() { xoJumps.Store(memo) }
}

// TestJumpMemoBounded: a length is memoized on its first jump, the memo
// stops growing at jumpMemoMax, and jumps stay exact on every path
// (loop, memoized, direct past the cap).
func TestJumpMemoBounded(t *testing.T) {
	memoLen := func() int {
		if m := xoJumps.Load(); m != nil {
			return len(*m)
		}
		return 0
	}
	defer clearJumpMemo()()
	for i := 0; i < jumpMemoMax+40; i++ {
		k := uint64(1<<20 + 7919*i)
		// The reference composes a different, shorter jump with a loop.
		want := NewSource(3).State()
		for j := 0; j <= skipLoopMax; j++ {
			want = xoStepState(want)
		}
		want = jump(want, k-skipLoopMax-1)
		for rep := 0; rep < 2; rep++ {
			before := memoLen()
			fast := NewSource(3)
			fast.Skip(k)
			if g := fast.State(); g != want {
				t.Fatalf("k=%d jump %d: %x, composed %x", k, rep, g, want)
			}
			wantGrew := 0
			if rep == 0 && before < jumpMemoMax {
				wantGrew = 1
			}
			if grew := memoLen() - before; grew != wantGrew {
				t.Fatalf("k=%d jump %d: memo grew by %d, want %d", k, rep, grew, wantGrew)
			}
		}
	}
	if n := memoLen(); n != jumpMemoMax {
		t.Fatalf("memo holds %d entries, cap %d", n, jumpMemoMax)
	}
	// A length past the cap still agrees with drawing.
	k := uint64(1<<20 + 3)
	fast := NewSource(4)
	fast.Skip(k)
	slow := NewSource(4)
	for i := uint64(0); i < k; i++ {
		slow.Uint64()
	}
	if fast.Uint64() != slow.Uint64() {
		t.Fatalf("unmemoized k=%d diverged from draws", k)
	}
}

// TestSourceStateRoundTrip: State/SetState snapshot and restore the
// stream exactly — the replay hook for lazy fill materialization.
func TestSourceStateRoundTrip(t *testing.T) {
	s := NewSource(5)
	s.Skip(1000)
	saved := s.State()
	var want [8]uint64
	for i := range want {
		want[i] = s.Uint64()
	}
	s.SetState(saved)
	for i := range want {
		if g := s.Uint64(); g != want[i] {
			t.Fatalf("draw %d after restore: %x != %x", i, g, want[i])
		}
	}
}

// TestJumpMemoConcurrent: goroutines resolving distinct skips against
// an empty memo all publish into it at once (run under -race), and
// every jump agrees with the serial result.
func TestJumpMemoConcurrent(t *testing.T) {
	const workers = 6
	k := func(w int) uint64 { return uint64(5000 + w*311) }
	want := make([][4]uint64, workers)
	for w := range want {
		want[w] = NewSource(uint64(w)).State()
		for i := uint64(0); i < k(w); i++ {
			want[w] = xoStepState(want[w])
		}
	}
	defer clearJumpMemo()()
	got := make([][8][4]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := range got[w] {
				s := NewSource(uint64(w))
				s.Skip(k(w))
				got[w][rep] = s.State()
			}
		}(w)
	}
	wg.Wait()
	for w := range want {
		for rep, g := range got[w] {
			if g != want[w] {
				t.Fatalf("worker %d jump %d: %x, serial %x", w, rep, g, want[w])
			}
		}
	}
	if m := xoJumps.Load(); m == nil || len(*m) != workers {
		t.Fatalf("memo not holding exactly the %d repeated jumps", workers)
	}
}

// BenchmarkSkipResolve times a memoized jump: a Skip plus the first
// draw, which pays for it.
func BenchmarkSkipResolve(b *testing.B) {
	s := NewSource(1)
	s.Skip(20000) // memoize this k
	s.Uint64()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Skip(20000)
		s.Uint64()
	}
}

// BenchmarkJumpDirect times an unmemoized jump of the same length as
// BenchmarkSkipResolve's, the path every length takes past the memo cap.
func BenchmarkJumpDirect(b *testing.B) {
	xoPowersOnce.Do(buildPowers)
	st := NewSource(1).State()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = jumpDirect(st, 20000)
	}
}

// BenchmarkSkipLoop times a jump short enough to step in a loop.
func BenchmarkSkipLoop(b *testing.B) {
	s := NewSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Skip(skipLoopMax)
		s.Uint64()
	}
}
