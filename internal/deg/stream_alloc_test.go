//go:build !race

package deg

import (
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// TestStreamAllocsBounded is the CI allocation gate on the streaming hot
// path: once the pools are warm, a full streamed analysis allocates a
// small, record-count-independent number of times — analyzer construction
// and initial buffer growth to the window+margin working set. A per-record
// allocation regression (the thing the trace pool and pooled buffers exist
// to prevent) blows through the budget by two orders of magnitude on this
// trace. Excluded under -race: the race runtime inflates allocation counts.
func TestStreamAllocsBounded(t *testing.T) {
	const n, window, chunk = 3000, 500, 256
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", n)
	opts := WindowOptions{Window: window}

	run := func() {
		sa, err := NewStreamAnalyzer(opts)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			c := pipetrace.GetTrace(hi - lo)
			c.Records = append(c.Records, tr.Records[lo:hi]...)
			if err := sa.Feed(c); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := sa.Finish(tr.Cycles); err != nil {
			t.Fatal(err)
		}
	}

	run() // warm the trace pool and the analyzer buffer pool

	const budget = 250.0
	if allocs := testing.AllocsPerRun(5, run); allocs > budget {
		t.Fatalf("streamed analysis of %d records allocates %.0f times, budget %.0f",
			n, allocs, budget)
	}
}

// TestWholeTraceAllocsBounded is the allocation gate on whole-trace
// analysis, the evaluator's DEG call for every probe and for unwindowed
// evaluations: with the buffer pool warm, AnalyzeWindowed over a whole
// 500-instruction trace allocates only its results — the Report and
// WindowStats — and never per vertex, per edge or per sort.
func TestWholeTraceAllocsBounded(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", 500)
	run := func() {
		if _, _, err := AnalyzeWindowed(tr, WindowOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the analyzer buffer pool

	const budget = 4.0
	if allocs := testing.AllocsPerRun(20, run); allocs > budget {
		t.Fatalf("whole-trace analysis of %d records allocates %.0f times, budget %.0f",
			len(tr.Records), allocs, budget)
	}
}

// TestPooledBuildStoresNoPipelineEdge pins the memory half of the implicit
// pipeline edges: a pooled whole-trace build of each SPEC06 probe trace
// stores, and indexes, only its skewed and virtual edges, while NumEdges
// still counts every edge.
func TestPooledBuildStoresNoPipelineEdge(t *testing.T) {
	b := bufPool.Get().(*buffers)
	defer bufPool.Put(b)
	for _, p := range workload.Suite06() {
		tr := traceFor(t, uarch.Baseline(), p.Name, 500)
		var g Graph
		if err := buildInto(&g, tr, 0, len(tr.Records), b); err != nil {
			t.Fatal(err)
		}
		pipe := g.EdgesByKind[EdgePipeline]
		if want := g.NumEdges() - pipe; pipe == 0 || len(b.edges) != want || len(b.in) != want {
			t.Fatalf("%s: %d edges, %d pipeline: stored %d and indexed %d, want %d",
				p.Name, g.NumEdges(), pipe, len(b.edges), len(b.in), want)
		}
	}
}
