package uarch

import "coregap/internal/sim"

// SetAssocCache is a set-indexed, set-associative cache model for the
// shared LLC — fine-grained enough to express the classic cross-core
// PRIME+PROBE contention channel (§2.4: last-level-cache side channels
// remain after core gapping and are closed by way-partitioning, not by
// placement).
//
// Unlike Buffer (which models occupancy), SetAssocCache models *where*
// lines land: an attacker that primes a set and later finds its lines
// evicted learns that the victim touched that set, secret-tagged or not —
// the channel carries address bits, which is all an LLC attack needs.
type SetAssocCache struct {
	sets  int
	ways  int
	lines [][]cacheLine // [set][way]
	rr    []int         // per-set round-robin eviction cursor

	// wayOwner, when partitioning is on, restricts each way index to one
	// domain across all sets (way-partitioning as in Arm MPAM / Intel CAT).
	partitioned bool
	wayOwner    []DomainID
}

type cacheLine struct {
	valid  bool
	domain DomainID
	tag    uint64
}

// NewSetAssocCache builds a sets×ways cache. Both must be powers of two
// in real hardware; the model only requires them positive.
func NewSetAssocCache(sets, ways int) *SetAssocCache {
	c := &SetAssocCache{
		sets:     sets,
		ways:     ways,
		lines:    make([][]cacheLine, sets),
		rr:       make([]int, sets),
		wayOwner: make([]DomainID, ways),
	}
	for i := range c.lines {
		c.lines[i] = make([]cacheLine, ways)
	}
	return c
}

// Sets and Ways report the geometry.
func (c *SetAssocCache) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *SetAssocCache) Ways() int { return c.ways }

// Partition assigns way ranges to domains: domain d gets ways
// [from, from+n). Enables partitioned mode.
func (c *SetAssocCache) Partition(d DomainID, from, n int) {
	c.partitioned = true
	for w := from; w < from+n && w < c.ways; w++ {
		c.wayOwner[w] = d
	}
}

// Partitioned reports whether way-partitioning is active.
func (c *SetAssocCache) Partitioned() bool { return c.partitioned }

func (c *SetAssocCache) setIndex(addr uint64) int {
	return int((addr >> 6) % uint64(c.sets)) // 64-byte lines
}

// Access models domain d touching addr: a lookup that allocates on miss,
// evicting within the domain's allowed ways. It reports whether the
// access evicted another domain's line (the observable contention event).
func (c *SetAssocCache) Access(d DomainID, addr uint64) (evictedForeign bool) {
	set := c.setIndex(addr)
	tag := addr >> 6
	lines := c.lines[set]

	// Hit?
	for w := range lines {
		if lines[w].valid && lines[w].tag == tag && c.wayAllowed(d, w) {
			return false
		}
	}
	// Miss: allocate in an allowed way — free first, else round robin.
	victim := -1
	for w := range lines {
		if c.wayAllowed(d, w) && !lines[w].valid {
			victim = w
			break
		}
	}
	if victim == -1 {
		// Rotate among allowed ways.
		start := c.rr[set]
		for i := 0; i < c.ways; i++ {
			w := (start + i) % c.ways
			if c.wayAllowed(d, w) {
				victim = w
				c.rr[set] = (w + 1) % c.ways
				break
			}
		}
	}
	if victim == -1 {
		return false // domain has no ways at all
	}
	evictedForeign = lines[victim].valid && lines[victim].domain != d
	lines[victim] = cacheLine{valid: true, domain: d, tag: tag}
	return evictedForeign
}

// WaysAvailable reports how many ways domain d may allocate into.
func (c *SetAssocCache) WaysAvailable(d DomainID) int {
	if !c.partitioned {
		return c.ways
	}
	n := 0
	for w := range c.wayOwner {
		if c.wayOwner[w] == d || c.wayOwner[w] == DomainNone {
			n++
		}
	}
	return n
}

func (c *SetAssocCache) wayAllowed(d DomainID, w int) bool {
	if !c.partitioned {
		return true
	}
	return c.wayOwner[w] == d || c.wayOwner[w] == DomainNone
}

// Present reports whether domain d's line for addr is still cached —
// the probe step of PRIME+PROBE (a fast access = still present).
func (c *SetAssocCache) Present(d DomainID, addr uint64) bool {
	set := c.setIndex(addr)
	tag := addr >> 6
	for _, l := range c.lines[set] {
		if l.valid && l.tag == tag && l.domain == d {
			return true
		}
	}
	return false
}

// OccupancyOf reports the fraction of all lines owned by d.
func (c *SetAssocCache) OccupancyOf(d DomainID) float64 {
	n := 0
	for _, set := range c.lines {
		for _, l := range set {
			if l.valid && l.domain == d {
				n++
			}
		}
	}
	return float64(n) / float64(c.sets*c.ways)
}

// AccessLatency models the timing side of the probe: a cached line
// answers in llcHit; an evicted one goes to memory.
const (
	llcHit  = 30 * sim.Nanosecond
	llcMiss = 110 * sim.Nanosecond
)

// ProbeLatency reports the modelled probe time for one line.
func (c *SetAssocCache) ProbeLatency(d DomainID, addr uint64) sim.Duration {
	if c.Present(d, addr) {
		return llcHit
	}
	return llcMiss
}
