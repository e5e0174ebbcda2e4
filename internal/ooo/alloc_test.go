//go:build !race

package ooo

import (
	"testing"

	"archexplorer/internal/uarch"
)

// TestNewAllocsBounded is the allocation gate on core recycling: once a
// released core is pooled, New followed by Release allocates at most one
// object per call while cycling through every L1 shape of the space on
// both caches and both ends of the ROB range, where building a core from
// scratch allocates ~70 objects and ~630 KB. Excluded under -race: the
// race runtime drops pooled items at random.
func TestNewAllocsBounded(t *testing.T) {
	shapes := l1Shapes()
	cfgs := make([]uarch.Config, len(shapes))
	for i, s := range shapes {
		cfg := uarch.Baseline()
		cfg.ICacheKB, cfg.ICacheAssoc = s[0], s[1]
		d := shapes[len(shapes)-1-i]
		cfg.DCacheKB, cfg.DCacheAssoc = d[0], d[1]
		cfg.ROBEntries = []int{32, 256}[i%2]
		cfgs[i] = cfg
	}
	next := 0
	cycle := func() {
		c, err := New(cfgs[next%len(cfgs)])
		if err != nil {
			t.Fatal(err)
		}
		next++
		c.Release()
	}
	for range cfgs {
		cycle() // grow the pooled core to the largest shape
	}
	const budget = 1.0
	if allocs := testing.AllocsPerRun(100, cycle); allocs > budget {
		t.Fatalf("New+Release allocates %.1f objects per call, budget %.0f", allocs, budget)
	}
}
