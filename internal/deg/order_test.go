package deg

import (
	"fmt"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// refPath is Algorithm 1 computed the plain way: every edge endpoint
// visited in (stamp, VertexID) order by a comparison sort, with d and
// parent in maps. A parent indexes edges, the graph's full edge list.
type refPath struct {
	edges  []Edge
	order  []VertexID
	d      map[VertexID]int64
	parent map[VertexID]int32
	sink   VertexID
	cost   int64
}

// refLongestPath runs the reference DP over g's edges. It fails the test if
// an edge does not run forward in the reference order, which would make the
// reference itself meaningless.
func refLongestPath(t testing.TB, g *Graph) refPath {
	t.Helper()
	edges := g.Edges()
	var verts []VertexID
	in := make(map[VertexID][]int32)
	seen := make(map[VertexID]bool)
	for i, e := range edges {
		for _, v := range [2]VertexID{e.From, e.To} {
			if !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
		in[e.To] = append(in[e.To], int32(i))
	}
	r := refPath{
		edges:  edges,
		order:  refSort(verts, g.time),
		d:      make(map[VertexID]int64, len(verts)),
		parent: make(map[VertexID]int32, len(verts)),
		cost:   -1,
	}
	pos := make(map[VertexID]int, len(verts))
	for i, v := range r.order {
		pos[v] = i
	}
	for _, e := range edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %+v does not run forward in (stamp, VertexID) order", e)
		}
	}
	for _, v := range r.order {
		var dv int64
		pe := int32(-1)
		for _, ei := range in[v] {
			e := &edges[ei]
			if cand := r.d[e.From] + e.Cost; cand > dv || (cand == dv && pe < 0) {
				dv, pe = cand, ei
			}
		}
		r.d[v], r.parent[v] = dv, pe
		if dv > r.cost {
			r.sink, r.cost = v, dv
		}
	}
	return r
}

// checkLongestPath fails unless g's DP matches the reference DP: the same
// super-sink and cost, and at every vertex the same d and the same parent
// edge, compared by value (the DP's stored-edge indices do not index the
// full edge list), or no parent on both sides.
func checkLongestPath(t testing.TB, g *Graph) {
	t.Helper()
	want := refLongestPath(t, g)
	if g.NumVertices != len(want.order) {
		t.Fatalf("NumVertices %d, want %d edge endpoints", g.NumVertices, len(want.order))
	}
	sink, cost, err := g.longestPath()
	if err != nil {
		t.Fatal(err)
	}
	if sink != want.sink || cost != want.cost {
		t.Fatalf("sink %d cost %d, want sink %d cost %d", sink, cost, want.sink, want.cost)
	}
	show := func(ok bool, e Edge) string {
		if !ok {
			return "none"
		}
		return fmt.Sprintf("%+v", e)
	}
	for _, v := range want.order {
		var p, wp Edge
		ok, wok := g.b.parent[v] != -1, want.parent[v] >= 0
		if ok {
			p = g.parentEdge(v)
		}
		if wok {
			wp = want.edges[want.parent[v]]
		}
		if d := g.b.d[v]; d != want.d[v] || ok != wok || p != wp {
			t.Fatalf("vertex %d (seq %d %s): d=%d parent=%s, want d=%d parent=%s",
				v, v.Seq(), v.Stage(), d, show(ok, p), want.d[v], show(wok, wp))
		}
	}
}

// checkBothBuffers builds tr's DEG once in fresh buffers and once in dirty,
// buffers left over from an earlier build, and checks each DP against the
// reference. It returns the fresh graph.
func checkBothBuffers(t testing.TB, tr *pipetrace.Trace, dirty *buffers) *Graph {
	t.Helper()
	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLongestPath(t, g)
	var pooled Graph
	if err := buildInto(&pooled, tr, 0, len(tr.Records), dirty); err != nil {
		t.Fatal(err)
	}
	checkLongestPath(t, &pooled)
	return g
}

// dirtyBuffers returns buffers that have built, and run the DP over, a
// graph larger than any the order tests check, so every table holds stale
// entries.
func dirtyBuffers(t testing.TB) *buffers {
	t.Helper()
	b := new(buffers)
	var g Graph
	tr := traceFor(t, goldenConfigs()[1].cfg, "429.mcf", 2000)
	if err := buildInto(&g, tr, 0, len(tr.Records), b); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.longestPath(); err != nil {
		t.Fatal(err)
	}
	return b
}

// cloneTrace copies tr's records, so a test can edit them.
func cloneTrace(tr *pipetrace.Trace) *pipetrace.Trace {
	return &pipetrace.Trace{Cycles: tr.Cycles, Records: append([]pipetrace.Record(nil), tr.Records...)}
}

// craftedTrace is a trace the simulator never emits, with the property its
// graph must show.
type craftedTrace struct {
	name  string
	tr    *pipetrace.Trace
	check func(g *Graph, cost int64) bool
}

// craftedTraces edits a short real trace, on the smallest design point
// where resource stalls start early, into the shapes the order tests
// need beyond simulator output: a backward stamp inside an instruction, a
// missing F1 stamp, no skewed edges at all, a span of 2³² cycles or more,
// and skewed edges none of which costs anything.
func craftedTraces(t testing.TB) []craftedTrace {
	t.Helper()
	base := traceFor(t, goldenConfigs()[1].cfg, "458.sjeng", 128)
	edit := func(f func(k int, r *pipetrace.Record)) *pipetrace.Trace {
		tr := cloneTrace(base)
		for k := range tr.Records {
			f(k, &tr.Records[k])
		}
		return tr
	}
	return []craftedTrace{
		{"backward", edit(func(_ int, r *pipetrace.Record) {
			// I stamped before R: the R and I anchors of an instruction
			// stalled at rename come out of stage order.
			if len(r.ResourceDeps()) > 0 {
				r.Stamp[pipetrace.SI] = r.Stamp[pipetrace.SR] - 1
			}
		}), func(g *Graph, _ int64) bool {
			anchor := func(k int, st pipetrace.Stage) bool { return g.b.mark[Vertex(k, st)]&(markStart|markEnd) != 0 }
			for k, r := range g.Trace.Records {
				if r.Stamp[pipetrace.SI] < r.Stamp[pipetrace.SR] && anchor(k, pipetrace.SR) && anchor(k, pipetrace.SI) {
					return g.DroppedBackward > 0
				}
			}
			return false
		}},
		{"no-f1", edit(func(k int, r *pipetrace.Record) {
			if k%7 == 3 {
				r.Stamp[pipetrace.SF1] = pipetrace.NoStamp
			}
		}), func(g *Graph, _ int64) bool { return g.DroppedNoStamp > 0 }},
		{"no-anchors", edit(func(_ int, r *pipetrace.Record) {
			r.SetResourceDeps()
			r.SetDataProducers()
			r.FUProducer, r.PortProducer, r.MispredictFrom = -1, -1, -1
		}), func(g *Graph, cost int64) bool { return g.SkewedAnchors == 0 && cost == 0 }},
		{"wide-span", edit(func(k int, r *pipetrace.Record) {
			// The second half runs 2³³ cycles later: the order keys rank
			// the stamps instead of offsetting them.
			if k >= len(base.Records)/2 {
				for st := range r.Stamp {
					if r.Stamp[st] != pipetrace.NoStamp {
						r.Stamp[st] += 1 << 33
					}
				}
			}
		}), func(g *Graph, _ int64) bool { return g.ks.ranks != nil && g.Dropped() == 0 }},
		{"zero-cost", edit(func(_ int, r *pipetrace.Record) {
			// Data edges and virtual edges cost nothing.
			r.SetResourceDeps()
			r.FUProducer, r.PortProducer, r.MispredictFrom = -1, -1, -1
		}), func(g *Graph, cost int64) bool {
			return g.SkewedAnchors > 0 && g.EdgesByKind[EdgeVirtual] > 0 && cost == 0
		}},
	}
}

// TestLongestPathMatchesReferenceOrder checks Algorithm 1's anchor order
// against the reference DP over every edge endpoint on the simulator's
// output — every SPEC06 workload at 500 instructions on the golden design
// points — and on crafted traces it never emits: defensive drops of both
// kinds, no anchors, a ranked keyspace, and no positive-cost path. Each
// graph is built once in fresh buffers and once in buffers dirtied by a
// larger earlier build.
func TestLongestPathMatchesReferenceOrder(t *testing.T) {
	dirty := dirtyBuffers(t)
	for _, c := range goldenConfigs() {
		for _, p := range workload.Suite06() {
			g := checkBothBuffers(t, traceFor(t, c.cfg, p.Name, 500), dirty)
			if g.Dropped() != 0 {
				t.Fatalf("%s/%s: simulator trace dropped %d edges", c.name, p.Name, g.Dropped())
			}
		}
	}
	for _, c := range craftedTraces(t) {
		t.Run(c.name, func(t *testing.T) {
			g := checkBothBuffers(t, c.tr, dirty)
			_, cost, err := g.longestPath()
			if err != nil {
				t.Fatal(err)
			}
			if !c.check(g, cost) {
				t.Fatalf("crafted trace lacks its shape: drops %d/%d, anchors %d, virtual edges %d, cost %d",
					g.DroppedNoStamp, g.DroppedBackward, g.SkewedAnchors, g.EdgesByKind[EdgeVirtual], cost)
			}
		})
	}
}

// FuzzLongestPathOrder perturbs the stamps and producers of a short real
// trace, or of one of the crafted traces (the seed corpus), and checks the
// DEG's DP against the reference order. Each three-byte group of ops edits
// one record: a stamp nudged or removed, or a data, resource, FU, port or
// misprediction producer set to an earlier instruction or cleared. A data
// or resource producer is added only while the record has room for it.
func FuzzLongestPathOrder(f *testing.F) {
	crafted := craftedTraces(f)
	bases := []*pipetrace.Trace{traceFor(f, goldenConfigs()[1].cfg, "445.gobmk", 96)}
	for i, c := range crafted {
		bases = append(bases, c.tr)
		f.Add(uint8(i+1), []byte(nil))
	}
	f.Add(uint8(0), []byte{5, 4, 0, 17, 1, 9, 30, 2, 200, 40, 3, 7, 41, 7, 1, 60, 0, 3})
	dirty := dirtyBuffers(f)
	f.Fuzz(func(t *testing.T, which uint8, ops []byte) {
		tr := cloneTrace(bases[int(which)%len(bases)])
		n := len(tr.Records)
		for ; len(ops) >= 3; ops = ops[3:] {
			k, sel, val := int(ops[0])%n, ops[1], ops[2]
			r := &tr.Records[k]
			// producer names an instruction before k, or none when k is 0.
			producer := func() int {
				if k == 0 {
					return -1
				}
				return k - 1 - int(val)%min(k, 64)
			}
			switch sel % 6 {
			case 0:
				st := pipetrace.Stage(int(sel/6) % pipetrace.NumStages)
				if val == 0 {
					r.Stamp[st] = pipetrace.NoStamp
				} else {
					r.Stamp[st] = max(0, r.Stamp[st]+int64(int8(val)))
				}
			case 1:
				if p, prods := producer(), r.DataProducers(); p >= 0 && len(prods) < pipetrace.MaxDataProducers {
					r.SetDataProducers(append(prods, int32(p))...)
				}
			case 2:
				if p, deps := producer(), r.ResourceDeps(); p >= 0 && len(deps) < pipetrace.MaxResourceDeps {
					res := uarch.Resource(int(sel/6) % uarch.NumResources)
					r.SetResourceDeps(append(deps, pipetrace.ResourceDep{Resource: res, Producer: int32(p)})...)
				}
			case 3:
				r.FUProducer = producer()
			case 4:
				r.PortProducer = producer()
			case 5:
				r.MispredictFrom = producer()
			}
		}
		g, err := Build(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() == 0 {
			return
		}
		checkBothBuffers(t, tr, dirty)
	})
}
