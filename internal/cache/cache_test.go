package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SizeKB: 32, Assoc: 2}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{SizeKB: 0, Assoc: 2}, {SizeKB: 32, Assoc: 0}, {SizeKB: 3, Assoc: 7}} {
		if _, err := New(bad); err == nil {
			t.Errorf("expected error for %+v", bad)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 2})
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1038) { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("next line should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("stats %d/%d", c.Accesses, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache: hammer three lines mapping to the same set; the least
	// recently used one must be the victim.
	c, _ := New(Config{SizeKB: 16, Assoc: 2}) // 128 sets
	setStride := uint64(128 * LineBytes)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a should have survived (was MRU)")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestWorkingSetFitsPerfectly(t *testing.T) {
	c, _ := New(Config{SizeKB: 32, Assoc: 4})
	// Touch 16KB twice: second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 16*1024; addr += LineBytes {
			c.Access(addr)
		}
	}
	if c.Misses != 16*1024/LineBytes {
		t.Fatalf("misses %d, want only cold misses %d", c.Misses, 16*1024/LineBytes)
	}
}

func TestMissRate(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 2})
	if c.MissRate() != 0 {
		t.Fatal("miss rate before accesses")
	}
	c.Access(0)
	c.Access(0)
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(Config{SizeKB: 32, Assoc: 2}, Config{SizeKB: 32, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x100000)
	// Cold: L1 miss, L2 miss -> DRAM.
	if lat := h.DataLatency(addr); lat != L1HitLatency+L2HitLatency+DRAMLatency {
		t.Fatalf("cold latency %d", lat)
	}
	// Warm: L1 hit.
	if lat := h.DataLatency(addr); lat != L1HitLatency {
		t.Fatalf("warm latency %d", lat)
	}
	// Fetch path mirrors it.
	if lat := h.FetchLatency(0x200000); lat != L1HitLatency+L2HitLatency+DRAMLatency {
		t.Fatalf("cold fetch latency %d", lat)
	}
	if lat := h.FetchLatency(0x200000); lat != L1HitLatency {
		t.Fatalf("warm fetch latency %d", lat)
	}
}

func TestTaggedPrefetchCoversStreams(t *testing.T) {
	h, err := NewHierarchy(Config{SizeKB: 32, Assoc: 2}, Config{SizeKB: 32, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stream 512 lines at 8-byte stride: after the first miss the tagged
	// next-line prefetcher must hide nearly all subsequent line misses.
	misses := 0
	for addr := uint64(0x100000); addr < 0x100000+512*LineBytes; addr += 8 {
		before := h.L1D.Misses
		h.DataLatency(addr)
		if h.L1D.Misses != before {
			misses++
		}
	}
	if misses > 4 {
		t.Fatalf("streaming misses %d, prefetcher ineffective", misses)
	}
	if h.Prefetches == 0 {
		t.Fatal("prefetcher never fired")
	}
}

func TestAccessesNeverPanicAndStatsMonotone(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 4})
	f := func(addr uint64) bool {
		a0, m0 := c.Accesses, c.Misses
		c.Access(addr)
		return c.Accesses == a0+1 && (c.Misses == m0 || c.Misses == m0+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchDoesNotPerturbStats(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		c.Install(rng.Uint64() % (1 << 20))
	}
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatalf("Install perturbed stats: %d/%d", c.Accesses, c.Misses)
	}
}

// drive runs a seeded mix of demand accesses and prefetch installs over a
// footprint a few times the cache, returning the hit pattern.
func drive(c *Cache, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	hits := make([]bool, 0, 3000)
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Intn(1<<18)) * 8
		if rng.Intn(4) == 0 {
			c.Install(addr)
			continue
		}
		hits = append(hits, c.Access(addr))
	}
	return hits
}

// cold is the state a cache's behaviour depends on, with the filled-set
// list reduced to its length.
func cold(c *Cache) []any {
	return []any{c.tags, c.lru, c.valid, c.pfTag, len(c.filled), c.assoc, c.setMask, c.Accesses, c.Misses, c.HitOnPrefetch}
}

// TestResetMatchesNew: a used cache reset to any shape — the same one, a
// smaller or larger one, another associativity — holds exactly the state
// New builds and then behaves identically.
func TestResetMatchesNew(t *testing.T) {
	shapes := []Config{{16, 2}, {64, 4}, {32, 4}, {16, 4}, {64, 2}, {L2SizeKB, L2Assoc}, {32, 2}, {32, 2}}
	c, err := New(shapes[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range shapes {
		drive(c, int64(i))
		if _, err := c.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold(c), cold(want)) {
			t.Fatalf("step %d: Reset to %+v differs from New", i, cfg)
		}
		if got, ref := drive(c, 100+int64(i)), drive(want, 100+int64(i)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("step %d: reset cache diverged from a new one on %+v", i, cfg)
		}
	}
	before := cold(c)
	if _, err := c.Reset(Config{SizeKB: 3, Assoc: 7}); err == nil {
		t.Fatal("Reset accepted a bad shape")
	}
	if !reflect.DeepEqual(cold(c), before) {
		t.Fatal("a rejected Reset changed the cache")
	}
}

// TestHierarchyResetMatchesNew: the same through the hierarchy, including
// the prefetch counter.
func TestHierarchyResetMatchesNew(t *testing.T) {
	h, err := NewHierarchy(Config{SizeKB: 64, Assoc: 4}, Config{SizeKB: 16, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	for addr := uint64(0); addr < 1<<16; addr += 40 {
		h.DataLatency(addr)
		h.FetchLatency(addr << 3)
	}
	l1i, l1d := Config{SizeKB: 32, Assoc: 2}, Config{SizeKB: 64, Assoc: 4}
	if _, err := h.Reset(l1i, l1d); err != nil {
		t.Fatal(err)
	}
	want, err := NewHierarchy(l1i, l1d)
	if err != nil {
		t.Fatal(err)
	}
	if h.Prefetches != 0 {
		t.Fatalf("Reset kept %d prefetches", h.Prefetches)
	}
	for _, pair := range [][2]*Cache{{h.L1I, want.L1I}, {h.L1D, want.L1D}, {h.L2, want.L2}} {
		if !reflect.DeepEqual(cold(pair[0]), cold(pair[1])) {
			t.Fatal("hierarchy Reset left a cache unlike a new one")
		}
	}
	if _, err := h.Reset(l1i, Config{SizeKB: 3, Assoc: 7}); err == nil {
		t.Fatal("Reset accepted a bad L1D")
	}
}
