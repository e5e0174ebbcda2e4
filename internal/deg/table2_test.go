package deg

// Hand-built pipeline traces verifying the Table 2 edge taxonomy precisely:
// every dependence class must produce exactly the edge the paper specifies,
// with the observed interval as its delay, and the induced DEG must connect
// skewed edges under Rules 1 and 2.

import (
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// mkRecord builds a record with a linear pipeline starting at cycle t0,
// one cycle per stage (M omitted for non-memory ops).
func mkRecord(seq int, t0 int64, class isa.OpClass) pipetrace.Record {
	r := pipetrace.NewRecord(seq, 0x1000+uint64(4*seq), class)
	t := t0
	for s := pipetrace.SF1; s <= pipetrace.SC; s++ {
		if s == pipetrace.SM && !class.IsMem() {
			continue
		}
		r.Stamp[s] = t
		t++
	}
	return r
}

func mkTrace(recs ...pipetrace.Record) *pipetrace.Trace {
	tr := &pipetrace.Trace{Records: recs}
	tr.Cycles = recs[len(recs)-1].Stamp[pipetrace.SC] + 1
	return tr
}

func findEdge(g *Graph, from, to VertexID, kind EdgeKind) *Edge {
	edges := g.Edges()
	for i := range edges {
		e := &edges[i]
		if e.From == from && e.To == to && e.Kind == kind {
			return e
		}
	}
	return nil
}

func TestPipelineEdgesWithinInstruction(t *testing.T) {
	tr := mkTrace(mkRecord(0, 0, isa.OpIntAlu), mkRecord(1, 1, isa.OpLoad))
	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Non-memory op: F1->F2->F->DC->R->DP->I->P->C (8 hops, no M).
	hops := [][2]pipetrace.Stage{
		{pipetrace.SF1, pipetrace.SF2}, {pipetrace.SF2, pipetrace.SF},
		{pipetrace.SF, pipetrace.SDC}, {pipetrace.SDC, pipetrace.SR},
		{pipetrace.SR, pipetrace.SDP}, {pipetrace.SDP, pipetrace.SI},
		{pipetrace.SI, pipetrace.SP}, {pipetrace.SP, pipetrace.SC},
	}
	for _, h := range hops {
		e := findEdge(g, Vertex(0, h[0]), Vertex(0, h[1]), EdgePipeline)
		if e == nil {
			t.Fatalf("missing pipeline edge %s->%s", h[0], h[1])
		}
		if e.Delay != 1 {
			t.Fatalf("%s->%s delay %d, want 1", h[0], h[1], e.Delay)
		}
		if e.Cost != 0 {
			t.Fatalf("pipeline edge has nonzero cost")
		}
	}
	// Memory op: I->M->P present.
	if findEdge(g, Vertex(1, pipetrace.SI), Vertex(1, pipetrace.SM), EdgePipeline) == nil {
		t.Fatal("missing I->M for load")
	}
	if findEdge(g, Vertex(1, pipetrace.SM), Vertex(1, pipetrace.SP), EdgePipeline) == nil {
		t.Fatal("missing M->P for load")
	}
}

func TestResourceEdgeRenameToRename(t *testing.T) {
	// I2 stalls 7 cycles at rename waiting for a ROB entry freed by I0.
	r0 := mkRecord(0, 0, isa.OpIntAlu)
	r1 := mkRecord(1, 1, isa.OpIntAlu)
	r2 := mkRecord(2, 2, isa.OpIntAlu)
	r2.Stamp[pipetrace.SR] = r0.Stamp[pipetrace.SR] + 7 // stalled rename
	for s := pipetrace.SDP; s <= pipetrace.SC; s++ {
		if s == pipetrace.SM {
			continue
		}
		r2.Stamp[s] = r2.Stamp[pipetrace.SR] + int64(s-pipetrace.SDP) + 1
	}
	r2.SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResROB, Producer: 0})
	tr := mkTrace(r0, r1, r2)

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := findEdge(g, Vertex(0, pipetrace.SR), Vertex(2, pipetrace.SR), EdgeResource)
	if e == nil {
		t.Fatal("missing R(0)->R(2) resource edge")
	}
	if e.Res != uarch.ResROB {
		t.Fatalf("edge attributed to %s, want ROB", e.Res)
	}
	if want := r2.Stamp[pipetrace.SR] - r0.Stamp[pipetrace.SR]; e.Delay != want {
		t.Fatalf("delay %d, want %d (the resource's duty cycles)", e.Delay, want)
	}
	if e.Cost != e.Delay {
		t.Fatal("resource edges must carry their delay as DP cost")
	}
}

func TestFUAndDataEdgesIssueToIssue(t *testing.T) {
	r0 := mkRecord(0, 0, isa.OpIntDiv)
	r1 := mkRecord(1, 1, isa.OpIntDiv)
	// I1 issues 20 cycles after I0 (divider busy), and also waits on I0's
	// result.
	shift := int64(20)
	for s := pipetrace.SI; s <= pipetrace.SC; s++ {
		if s == pipetrace.SM {
			continue
		}
		r1.Stamp[s] += shift
	}
	r1.FUProducer = 0
	r1.FURes = uarch.ResIntMultDiv
	r1.SetDataProducers(0)
	tr := mkTrace(r0, r1)

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fu := findEdge(g, Vertex(0, pipetrace.SI), Vertex(1, pipetrace.SI), EdgeFU)
	if fu == nil {
		t.Fatal("missing FU I(0)->I(1) edge")
	}
	if fu.Res != uarch.ResIntMultDiv || fu.Cost != fu.Delay {
		t.Fatalf("FU edge wrong: %+v", fu)
	}
	data := findEdge(g, Vertex(0, pipetrace.SI), Vertex(1, pipetrace.SI), EdgeData)
	if data == nil {
		t.Fatal("missing true-data I(0)->I(1) edge")
	}
	if data.Cost != 0 {
		t.Fatal("true data dependence must have zero DP cost (Section 4.2 rule 3)")
	}
	if data.Res != uarch.ResRawDep {
		t.Fatalf("data edge attributed to %s", data.Res)
	}
}

func TestMispredictEdgePToF1(t *testing.T) {
	br := mkRecord(0, 0, isa.OpBranch)
	br.Mispredicted = true
	refill := mkRecord(1, br.Stamp[pipetrace.SP]+3, isa.OpIntAlu) // squash latency 3
	refill.MispredictFrom = 0
	tr := mkTrace(br, refill)

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := findEdge(g, Vertex(0, pipetrace.SP), Vertex(1, pipetrace.SF1), EdgeMispredict)
	if e == nil {
		t.Fatal("missing P(0)->F1(1) misprediction edge")
	}
	if e.Delay != 3 {
		t.Fatalf("squash delay %d, want the actual interval 3", e.Delay)
	}
	if e.Res != uarch.ResBranchPred {
		t.Fatalf("attributed to %s", e.Res)
	}
}

func TestVirtualEdgesConnectConsecutiveSkewedEdges(t *testing.T) {
	// Two disjoint resource edges: R(0)->R(2) and R(3)->R(5). The induced
	// DEG must add a virtual edge from the first edge's endpoints toward
	// the second edge's start so the critical path can chain them.
	var recs []pipetrace.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(i, int64(3*i), isa.OpIntAlu))
	}
	recs[2].SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResIQ, Producer: 0})
	recs[5].SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResIQ, Producer: 3})
	tr := mkTrace(recs...)

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgesByKind[EdgeVirtual] == 0 {
		t.Fatal("induced DEG added no virtual edges")
	}
	// Some virtual edge must END at the second skewed edge's start R(3).
	found := false
	for _, e := range g.Edges() {
		if e.Kind == EdgeVirtual && e.To == Vertex(3, pipetrace.SR) {
			found = true
			if e.Cost != 0 {
				t.Fatal("virtual edges must cost zero")
			}
		}
	}
	if !found {
		t.Fatal("no virtual edge into the later skewed edge's start")
	}
	// And the critical path must pick up both resource edges.
	cp, err := g.Construct()
	if err != nil {
		t.Fatal(err)
	}
	resEdges := 0
	for _, e := range cp.Edges {
		if e.Kind == EdgeResource {
			resEdges++
		}
	}
	if resEdges != 2 {
		t.Fatalf("critical path chains %d resource edges, want 2", resEdges)
	}
}

// TestAnchorDedupPinnedEdgeCounts pins the exact induced-DEG shape of a
// fixture where one vertex starts two skewed edges: R(0) produces for both
// R(2) and R(3). Before anchors were deduped by (vertex, start), R(0)
// appeared twice in the anchor list — repeating its Rule 1/Rule 2 scans and
// crowding the bounded Rule-2 candidate window — and SkewedAnchors
// over-reported as 6.
func TestAnchorDedupPinnedEdgeCounts(t *testing.T) {
	var recs []pipetrace.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRecord(i, int64(3*i), isa.OpIntAlu))
	}
	recs[2].SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResROB, Producer: 0})
	recs[3].SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResIQ, Producer: 0})
	recs[5].SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResIQ, Producer: 3})
	tr := mkTrace(recs...)

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 6 non-memory instructions × 8 pipeline hops.
	if got := g.EdgesByKind[EdgePipeline]; got != 48 {
		t.Fatalf("%d pipeline edges, want 48", got)
	}
	if got := g.EdgesByKind[EdgeResource]; got != 3 {
		t.Fatalf("%d resource edges, want 3", got)
	}
	// Rule 1 from R(0)'s start anchor and from R(2)'s end anchor both reach
	// the next episode's start R(3); anchors at or after R(3) have no later
	// target.
	if got := g.EdgesByKind[EdgeVirtual]; got != 2 {
		t.Fatalf("%d virtual edges, want 2", got)
	}
	// Distinct (vertex, start) anchors: R(0)/start, R(2)/end, R(3)/end,
	// R(3)/start, R(5)/end.
	if g.SkewedAnchors != 5 {
		t.Fatalf("SkewedAnchors=%d, want 5 (duplicate R(0) start anchor not deduped)", g.SkewedAnchors)
	}
	if g.Dropped() != 0 {
		t.Fatalf("defensive drops on a clean fixture: %+v", g)
	}
}

func TestAttributionUsesActualDelays(t *testing.T) {
	// One 10-cycle resource stall in a 20-cycle execution: the resource's
	// contribution must be 10/Cycles.
	r0 := mkRecord(0, 0, isa.OpIntAlu)
	r1 := mkRecord(1, 1, isa.OpIntAlu)
	r1.Stamp[pipetrace.SR] = r0.Stamp[pipetrace.SR] + 10
	for s := pipetrace.SDP; s <= pipetrace.SC; s++ {
		if s == pipetrace.SM {
			continue
		}
		r1.Stamp[s] = r1.Stamp[pipetrace.SR] + int64(s-pipetrace.SR)
	}
	r1.SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResIntRF, Producer: 0})
	tr := mkTrace(r0, r1)

	rep, _, _, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 10.0 / float64(tr.Cycles)
	if got := rep.Contrib[uarch.ResIntRF]; got < want*0.999 || got > want*1.001 {
		t.Fatalf("IntRF contribution %v, want %v", got, want)
	}
	if rep.EdgeCount[uarch.ResIntRF] != 1 {
		t.Fatalf("edge count %d", rep.EdgeCount[uarch.ResIntRF])
	}
}
