// Package cache models the two-level cache hierarchy of the evaluated
// processor: split first-level instruction and data caches (swept in the
// design space), a unified 8-way 2MB L2, and a fixed-latency DRAM main
// memory (Section 5.1 of the paper).
//
// The model is a timing filter: an access returns the number of cycles
// until data is available. Caches are set-associative with true-LRU
// replacement and are non-blocking only in the sense that the core overlaps
// latencies itself; the cache keeps no MSHR state. This matches the
// fidelity the DEG needs — the D-cache "skewed" edges carry the observed
// access latency, whatever produced it.
package cache

import "fmt"

// Latencies of the fixed parts of the hierarchy, in cycles.
const (
	L1HitLatency = 2  // Table 1: 2-cycle L1 I$ and D$
	L2HitLatency = 12 // typical L2 for the era's 2MB/8-way
	DRAMLatency  = 200
	L2SizeKB     = 2048
	L2Assoc      = 8
	LineBytes    = 64
	lineShift    = 6
)

// Config sizes one level-1 cache.
type Config struct {
	SizeKB int
	Assoc  int
}

// Cache is a set-associative cache with LRU replacement. Way state is
// stored in flat arrays indexed by set*assoc+way — one allocation per
// array instead of four slices per set, and a contiguous scan per lookup.
type Cache struct {
	tags []uint64
	// lru[base+i] is the recency rank of way i in its set (0 = most recent).
	lru   []uint8
	valid []bool
	// pfTag marks lines installed by the prefetcher and not yet demanded
	// (tagged prefetching: the first demand hit re-arms the prefetcher).
	pfTag []bool
	// filled lists every set that has taken a fill since the cache was
	// built or Reset. A set's state changes only through a fill or a hit,
	// and a hit needs a valid line, so every set outside this list is
	// still cold and Reset restores only the listed ones. Its capacity is
	// the set count, so recording a fill never allocates.
	filled  []int32
	assoc   int
	setMask uint64

	Accesses uint64
	Misses   uint64
	// HitOnPrefetch reports whether the most recent Access consumed a
	// prefetched line for the first time.
	HitOnPrefetch bool
}

// New builds a cache; size must divide evenly into sets of the given
// associativity. It is Reset on a nil cache.
func New(cfg Config) (*Cache, error) { return (*Cache)(nil).Reset(cfg) }

// Reset returns the cache to the cold state New(cfg) builds — every line
// invalid, initial recency ranks, zero statistics — reusing c's arrays, and
// returns it; a nil c allocates a new cache. Only the sets the previous
// run filled are restored, so resetting costs the state that run touched,
// not the cache size. A changed shape reslices the arrays by capacity; the
// restore has left every line cold, so only the ranks are laid out again.
// An invalid cfg leaves c untouched.
func (c *Cache) Reset(cfg Config) (*Cache, error) {
	if cfg.SizeKB < 1 || cfg.Assoc < 1 {
		return nil, fmt.Errorf("cache: bad config %+v", cfg)
	}
	lines := cfg.SizeKB * 1024 / LineBytes
	nsets := lines / cfg.Assoc
	if nsets < 1 || nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %dKB/%d-way yields %d sets (must be a power of two >= 1)", cfg.SizeKB, cfg.Assoc, nsets)
	}
	if c == nil {
		c = new(Cache)
	}
	for _, set := range c.filled {
		c.coldSet(int(set) * c.assoc)
	}
	if len(c.tags) != lines || c.assoc != cfg.Assoc {
		if cap(c.tags) < lines {
			c.tags = make([]uint64, lines)
			c.lru = make([]uint8, lines)
			c.valid = make([]bool, lines)
			c.pfTag = make([]bool, lines)
		}
		c.tags, c.lru = c.tags[:lines], c.lru[:lines]
		c.valid, c.pfTag = c.valid[:lines], c.pfTag[:lines]
		rankSets(c.lru, cfg.Assoc)
	}
	if cap(c.filled) < nsets {
		c.filled = make([]int32, 0, nsets)
	}
	c.filled = c.filled[:0]
	c.assoc = cfg.Assoc
	c.setMask = uint64(nsets - 1)
	c.Accesses, c.Misses, c.HitOnPrefetch = 0, 0, false
	return c, nil
}

// rankSets lays out the initial recency ranks 0..assoc-1 in every set of
// lru. Ranks form a permutation within each set and touch preserves that
// invariant, so they must start distinct. It loops over sets and ways
// rather than taking a modulo per line, which would cost a divide on each
// of the L2's 32Ki lines whenever a cache is built.
func rankSets(lru []uint8, assoc int) {
	for base := 0; base < len(lru); base += assoc {
		for w := 0; w < assoc; w++ {
			lru[base+w] = uint8(w)
		}
	}
}

// coldSet restores the set at base to its never-filled state.
func (c *Cache) coldSet(base int) {
	end := base + c.assoc
	clear(c.tags[base:end])
	clear(c.valid[base:end])
	clear(c.pfTag[base:end])
	rankSets(c.lru[base:end], c.assoc)
}

// Access looks up addr, filling the line on a miss, and reports whether the
// access hit. HitOnPrefetch is set when the hit consumed a prefetched line
// for the first time (the hierarchy re-arms the prefetcher on that signal).
func (c *Cache) Access(addr uint64) bool {
	c.HitOnPrefetch = false
	c.Accesses++
	hit, _ := c.lookup(addr, false)
	return hit
}

// Install fills addr as a prefetch: no statistics, line tagged.
func (c *Cache) Install(addr uint64) {
	c.lookup(addr, true)
}

func (c *Cache) lookup(addr uint64, isPrefetch bool) (hit bool, way int) {
	line := addr >> lineShift
	set := line & c.setMask
	base := int(set) * c.assoc
	tag := line >> 1 // keep set bits out of the tag for compactness

	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			if !isPrefetch && c.pfTag[base+w] {
				c.pfTag[base+w] = false
				c.HitOnPrefetch = true
			}
			return true, w
		}
	}
	if !isPrefetch {
		c.Misses++
	}
	// Fill the LRU way.
	victim := 0
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] > c.lru[base+victim] {
			victim = w
		}
	}
	if !c.valid[base] {
		// A cold set's first fill always takes way 0, the first invalid
		// way, and way 0 stays valid from then on.
		c.filled = append(c.filled, int32(set))
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.pfTag[base+victim] = isPrefetch
	c.touch(base, victim)
	return false, victim
}

// touch promotes way w of the set at base to most-recently-used.
func (c *Cache) touch(base, w int) {
	old := c.lru[base+w]
	for i := 0; i < c.assoc; i++ {
		if c.lru[base+i] < old {
			c.lru[base+i]++
		}
	}
	c.lru[base+w] = 0
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy bundles L1I, L1D, and the shared L2 with its timing.
type Hierarchy struct {
	L1I, L1D   *Cache
	L2         *Cache
	Prefetches uint64
}

// NewHierarchy builds the full memory system for one design point. It is
// Reset on a nil hierarchy.
func NewHierarchy(l1i, l1d Config) (*Hierarchy, error) {
	return (*Hierarchy)(nil).Reset(l1i, l1d)
}

// Reset returns the hierarchy to the cold state NewHierarchy(l1i, l1d)
// builds, resetting its caches in place (see Cache.Reset), and returns it;
// a nil h allocates.
func (h *Hierarchy) Reset(l1i, l1d Config) (*Hierarchy, error) {
	if h == nil {
		h = new(Hierarchy)
	}
	ic, err := h.L1I.Reset(l1i)
	if err != nil {
		return nil, fmt.Errorf("L1I: %w", err)
	}
	dc, err := h.L1D.Reset(l1d)
	if err != nil {
		return nil, fmt.Errorf("L1D: %w", err)
	}
	l2, err := h.L2.Reset(Config{SizeKB: L2SizeKB, Assoc: L2Assoc})
	if err != nil {
		return nil, fmt.Errorf("L2: %w", err)
	}
	*h = Hierarchy{L1I: ic, L1D: dc, L2: l2}
	return h, nil
}

// FetchLatency returns the cycles to fetch the instruction line at addr.
// Misses trigger a next-line prefetch (sequential code dominates).
func (h *Hierarchy) FetchLatency(addr uint64) int {
	if h.L1I.Access(addr) {
		if h.L1I.HitOnPrefetch {
			h.prefetch(h.L1I, addr+LineBytes)
		}
		return L1HitLatency
	}
	// The demand L2 access must precede the next-line install so the
	// prefetch cannot perturb this access's hit/miss or LRU outcome.
	lat := L1HitLatency + L2HitLatency
	if !h.L2.Access(addr) {
		lat += DRAMLatency
	}
	h.prefetch(h.L1I, addr+LineBytes)
	return lat
}

// DataLatency returns the cycles for a data access at addr. Stores use the
// same path (no write buffer modelled; the SQ provides the buffering).
// Misses trigger a tagged next-line prefetch, the timing-free equivalent of
// gem5's stride prefetcher for unit-stride streams.
func (h *Hierarchy) DataLatency(addr uint64) int {
	if h.L1D.Access(addr) {
		if h.L1D.HitOnPrefetch {
			h.prefetch(h.L1D, addr+LineBytes)
		}
		return L1HitLatency
	}
	lat := L1HitLatency + L2HitLatency
	if !h.L2.Access(addr) {
		lat += DRAMLatency
	}
	h.prefetch(h.L1D, addr+LineBytes)
	return lat
}

// prefetch installs a line into l1 and the L2 without perturbing the demand
// hit/miss statistics.
func (h *Hierarchy) prefetch(l1 *Cache, addr uint64) {
	l1.Install(addr)
	h.L2.Install(addr)
	h.Prefetches++
}
