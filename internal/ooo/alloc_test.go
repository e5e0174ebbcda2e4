//go:build !race

package ooo

import (
	"testing"

	"archexplorer/internal/pipetrace"
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

// TestRunPoolTraffic is the allocation and pool gate on the one simulator
// loop. With warm core and trace pools, an evaluator-style cycle — New,
// Run, release the trace, release the core — allocates at most the Stats
// copy and takes exactly one trace from the pool: Run is RunStream's
// one-chunk case and must not fetch a spare trace the size of the stream.
// RunStream takes exactly one pool trace per chunk. Excluded under -race:
// the race runtime drops pooled items at random.
func TestRunPoolTraffic(t *testing.T) {
	stream := testStream(t, 20000)
	cycle := func() {
		c, err := New(uarch.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := c.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		tr.Release()
		c.Release()
	}
	cycle() // warm both pools
	base := pipetrace.TracePoolStats()
	cycle()
	if st := pipetrace.TracePoolStats(); st.Gets != base.Gets+1 || st.Puts != base.Puts+1 {
		t.Fatalf("one Run took %d traces and released %d, want 1 and 1",
			st.Gets-base.Gets, st.Puts-base.Puts)
	}
	const budget = 1.0 // the Stats copy
	if allocs := testing.AllocsPerRun(20, cycle); allocs > budget {
		t.Fatalf("New+Run+Release allocates %.1f objects per cycle, budget %.0f", allocs, budget)
	}

	c, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	base = pipetrace.TracePoolStats()
	if _, err := c.RunStream(stream[:2048], 1024, func(ch *pipetrace.Trace) error {
		ch.Release()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := pipetrace.TracePoolStats().Gets - base.Gets; got != 2 {
		t.Fatalf("RunStream of 2,048 records at chunk size 1,024 took %d pool traces, want 2", got)
	}
}
