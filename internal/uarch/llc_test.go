package uarch

import (
	"testing"
	"testing/quick"
)

func TestSetAssocGeometryAndIndexing(t *testing.T) {
	c := NewSetAssocCache(8, 4)
	if c.Sets() != 8 || c.Ways() != 4 || c.Partitioned() {
		t.Fatal("geometry/defaults")
	}
	d := Guest(0)
	// Addresses 64 bytes apart land in consecutive sets.
	for i := 0; i < 8; i++ {
		c.Access(d, uint64(i)<<6)
	}
	for i := 0; i < 8; i++ {
		if !c.Present(d, uint64(i)<<6) {
			t.Fatalf("line %d missing", i)
		}
	}
	if got := c.OccupancyOf(d); got != 8.0/32.0 {
		t.Fatalf("occupancy = %v", got)
	}
}

func TestSetAssocEvictionWithinSet(t *testing.T) {
	c := NewSetAssocCache(4, 2)
	d := Guest(0)
	// Three conflicting lines in set 1: the first is evicted.
	for _, tag := range []uint64{1, 5, 9} {
		c.Access(d, tag<<6)
	}
	if c.Present(d, 1<<6) {
		t.Fatal("oldest conflicting line survived")
	}
	if !c.Present(d, 5<<6) || !c.Present(d, 9<<6) {
		t.Fatal("newer lines evicted")
	}
	// Untouched sets are unaffected.
	c.Access(d, 2<<6)
	if !c.Present(d, 2<<6) {
		t.Fatal("other set disturbed")
	}
}

func TestSetAssocForeignEvictionReporting(t *testing.T) {
	c := NewSetAssocCache(2, 1)
	a, b := Guest(0), Guest(1)
	if ev := c.Access(a, 0); ev {
		t.Fatal("cold miss reported foreign eviction")
	}
	if ev := c.Access(a, 0); ev {
		t.Fatal("hit reported eviction")
	}
	if ev := c.Access(b, 2<<6); !ev { // same set 0, different tag & domain
		t.Fatal("foreign eviction not reported")
	}
}

func TestSetAssocPartitioningIsolation(t *testing.T) {
	c := NewSetAssocCache(2, 4)
	a, b := Guest(0), Guest(1)
	c.Partition(a, 0, 2)
	c.Partition(b, 2, 2)
	if !c.Partitioned() {
		t.Fatal("not partitioned")
	}
	if c.WaysAvailable(a) != 2 || c.WaysAvailable(b) != 2 {
		t.Fatalf("ways available: %d/%d", c.WaysAvailable(a), c.WaysAvailable(b))
	}
	// b's line survives arbitrary pressure from a.
	c.Access(b, 0)
	for i := uint64(0); i < 32; i++ {
		c.Access(a, (2*i)<<6)
	}
	if !c.Present(b, 0) {
		t.Fatal("partition violated")
	}
	// A domain with no ways cannot allocate and evicts nothing.
	ghost := Guest(9)
	if c.WaysAvailable(ghost) != 0 {
		t.Fatal("ghost has ways")
	}
	if ev := c.Access(ghost, 0); ev {
		t.Fatal("wayless domain evicted a line")
	}
	if c.Present(ghost, 0) {
		t.Fatal("wayless domain allocated")
	}
}

func TestSetAssocProbeLatency(t *testing.T) {
	c := NewSetAssocCache(2, 2)
	d := Guest(0)
	c.Access(d, 0)
	hit := c.ProbeLatency(d, 0)
	miss := c.ProbeLatency(d, 4<<6)
	if hit >= miss {
		t.Fatalf("hit %v not faster than miss %v", hit, miss)
	}
}

func TestSetAssocOccupancyInvariant(t *testing.T) {
	f := func(addrsRaw []uint16, domsRaw []uint8) bool {
		c := NewSetAssocCache(8, 2)
		for i, a := range addrsRaw {
			d := Guest(0)
			if i < len(domsRaw) {
				d = Guest(int(domsRaw[i]) % 3)
			}
			c.Access(d, uint64(a)<<6)
		}
		var total float64
		for g := 0; g < 3; g++ {
			total += c.OccupancyOf(Guest(g))
		}
		return total <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
