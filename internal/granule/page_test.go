package granule

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTable is the dense reference the paged Table is checked against:
// the same state machine over a map, with no pages, no scrub range and
// no incremental counts.
type refTable struct {
	n uint64
	g map[PA]granule
}

func (r *refTable) index(pa PA) (PA, error) {
	if !pa.Aligned() {
		return 0, ErrUnaligned
	}
	if pa.Index() >= r.n {
		return 0, ErrOutOfRange
	}
	return pa, nil
}

func (r *refTable) apply(op int, pa PA, to State, owner RealmID) error {
	pa, err := r.index(pa)
	if err != nil {
		return err
	}
	g := r.g[pa]
	switch op {
	case 0: // Delegate
		if g.state == Delegated {
			return ErrDoubleDelegate
		}
		if g.state != Undelegated {
			return ErrBadState
		}
		g.state, g.dirty = Delegated, false
	case 1: // Undelegate
		if g.state != Delegated {
			return ErrBadState
		}
		if g.dirty {
			return ErrNotScrubbed
		}
		g.state = Undelegated
	case 2: // Claim
		if g.state != Delegated {
			return ErrBadState
		}
		g.state, g.owner, g.dirty = to, owner, true
	case 3: // Release
		if g.state < RD {
			return ErrBadState
		}
		if g.owner != owner {
			return ErrWrongOwner
		}
		g.state, g.owner, g.dirty = Delegated, 0, false
	}
	r.g[pa] = g
	return nil
}

func (r *refTable) count(s State) uint64 {
	var c uint64
	for _, g := range r.g {
		if g.state == s {
			c++
		}
	}
	if s == Undelegated {
		c += r.n - uint64(len(r.g))
	}
	return c
}

// TestPagedTableMatchesDense runs seeded random Delegate, Undelegate,
// Claim, Release and Reset sequences against the paged table and the
// dense reference, and requires identical errors, states, owners,
// access checks and per-state counts after every step. Addresses
// concentrate on page boundaries, the last granule, out-of-range and
// unaligned addresses; the table ends in a partial page, and some
// resets resize it.
func TestPagedTableMatchesDense(t *testing.T) {
	const n = 3*pageLen + 7
	var probes []PA
	for k := uint64(0); k <= n/pageLen+1; k++ {
		for _, idx := range []uint64{k*pageLen - 1, k * pageLen, k*pageLen + 1} {
			probes = append(probes, PA(idx*Size))
		}
	}
	probes = append(probes, PA((n-1)*Size), PA(n*Size), PA((n+1)*Size), PA(Size+1), PA(1<<62))

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable(n * Size)
		ref := &refTable{n: n, g: map[PA]granule{}}
		for step := 0; step < 400; step++ {
			pa := probes[rng.Intn(len(probes))]
			if rng.Intn(3) == 0 {
				pa = PA(uint64(rng.Intn(n+pageLen)) * Size)
			}
			to := State(RD + State(rng.Intn(4)))
			owner := RealmID(1 + rng.Intn(2))
			op := rng.Intn(9)
			var got, want error
			switch op {
			case 0, 1:
				got, want = tbl.Delegate(pa), ref.apply(0, pa, 0, 0)
			case 2:
				got, want = tbl.Undelegate(pa), ref.apply(1, pa, 0, 0)
			case 3, 4:
				got, want = tbl.Claim(pa, to, owner), ref.apply(2, pa, to, owner)
			case 5, 6:
				got, want = tbl.Release(pa, owner), ref.apply(3, pa, 0, owner)
			case 7:
				if rng.Intn(10) == 0 {
					// Mostly the pooled same-size reset; sometimes a
					// resize into or out of the partial last page.
					size := []uint64{n, n, n, n - 5, 2 * pageLen}[rng.Intn(5)]
					tbl.Reset(size * Size)
					ref.n, ref.g = size, map[PA]granule{}
				}
				continue
			case 8:
				// Reads only.
			}
			where := fmt.Sprintf("seed %d step %d op %d pa %#x", seed, step, op, uint64(pa))
			if got != want {
				t.Fatalf("%s: err %v, reference %v", where, got, want)
			}
			st, err := tbl.State(pa)
			own, _ := tbl.Owner(pa)
			_, ierr := ref.index(pa)
			if err != ierr {
				t.Fatalf("%s: State err %v, reference %v", where, err, ierr)
			}
			rg := ref.g[pa]
			if st != rg.state || own != rg.owner {
				t.Fatalf("%s: state/owner %v/%d, reference %v/%d", where, st, own, rg.state, rg.owner)
			}
			base := PA(uint64(pa) / Size * Size)
			wantHost, wantRealm := false, false
			if _, berr := ref.index(base); berr == nil {
				bg := ref.g[base]
				wantHost = bg.state == Undelegated
				wantRealm = wantHost || bg.state == Data && bg.owner == owner
			}
			if tbl.HostAccessible(pa) != wantHost || tbl.RealmAccessible(pa, owner) != wantRealm {
				t.Fatalf("%s: host/realm access %v/%v, reference %v/%v", where,
					tbl.HostAccessible(pa), tbl.RealmAccessible(pa, owner), wantHost, wantRealm)
			}
			for s := Undelegated; s <= Data; s++ {
				if got, want := tbl.CountIn(s), ref.count(s); got != want {
					t.Fatalf("%s: CountIn(%v) = %d, reference %d", where, s, got, want)
				}
			}
		}
	}
}

// TestZeroAllocUntouchedReads: reading a granule whose page was never
// mutated allocates nothing and leaves the page absent, so the
// protection checks on untouched memory cost no table memory.
func TestZeroAllocUntouchedReads(t *testing.T) {
	tbl := NewTable(testMem)
	pa := PA(5 * pageLen * Size)
	allocs := testing.AllocsPerRun(100, func() {
		tbl.State(pa)
		tbl.Owner(pa)
		tbl.HostAccessible(pa + 8)
		tbl.RealmAccessible(pa, 1)
	})
	if allocs != 0 {
		t.Fatalf("untouched reads: %.1f allocs/op, want 0", allocs)
	}
	for i, p := range tbl.pages {
		if p != nil {
			t.Fatalf("page %d resident after reads only", i)
		}
	}
	if st, _ := tbl.State(pa); st != Undelegated || !tbl.HostAccessible(pa) {
		t.Fatalf("untouched granule reads %v", st)
	}
}

// TestZeroAllocDelegateResident: once a granule's page is resident, the
// delegation round trip allocates nothing, and Reset keeps the page.
func TestZeroAllocDelegateResident(t *testing.T) {
	tbl := NewTable(testMem)
	pa := PA(3 * Size)
	if err := tbl.Delegate(pa); err != nil {
		t.Fatal(err)
	}
	tbl.Reset(testMem)
	allocs := testing.AllocsPerRun(100, func() {
		if err := tbl.Delegate(pa + Size); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Undelegate(pa + Size); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("resident delegate: %.1f allocs/op, want 0", allocs)
	}
	resident := 0
	for _, p := range tbl.pages {
		if p != nil {
			resident++
		}
	}
	if resident != 1 {
		t.Fatalf("%d pages resident, want 1", resident)
	}
}
