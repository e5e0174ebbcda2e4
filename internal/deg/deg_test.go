package deg

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

func traceFor(t testing.TB, cfg uarch.Config, name string, n int) *pipetrace.Trace {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, n)
	if err != nil {
		t.Fatal(err)
	}
	core, err := ooo.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := core.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildProducesDAGForwardEdges(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", 3000)
	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph")
	}
	for _, e := range g.Edges() {
		if e.Delay < 0 {
			t.Fatalf("backward edge %v", e)
		}
		// Edges run forward in (time, VertexID) order, the topological
		// order the DP visits.
		if tf, tt := g.time(e.From), g.time(e.To); tf > tt || (tf == tt && e.From >= e.To) {
			t.Fatalf("edge violates topological key: %v -> %v", e.From, e.To)
		}
		if e.Cost != 0 && e.Kind != EdgeResource && e.Kind != EdgeFU && e.Kind != EdgeMispredict {
			t.Fatalf("non-resource edge has cost: %+v", e)
		}
	}
	t.Logf("graph: %d vertices, %d edges %v", g.NumVertices, g.NumEdges(), g.EdgesByKind)
}

func TestCriticalPathTelescopes(t *testing.T) {
	for _, name := range []string{"458.sjeng", "429.mcf", "444.namd", "462.libquantum"} {
		tr := traceFor(t, uarch.Baseline(), name, 3000)
		g, err := Build(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := g.Construct()
		if err != nil {
			t.Fatal(err)
		}
		// The path's total edge delay must telescope exactly to the time
		// span between its first and last vertex.
		var sum int64
		for _, e := range cp.Edges {
			sum += e.Delay
		}
		if sum != cp.Span {
			t.Fatalf("%s: path delays sum to %d but span is %d", name, sum, cp.Span)
		}
		if cp.Span > tr.Cycles {
			t.Fatalf("%s: span %d exceeds runtime %d", name, cp.Span, tr.Cycles)
		}
		// The chain should cover most of the execution (it is the
		// serialization of the whole microexecution).
		if frac := float64(cp.Span) / float64(tr.Cycles); frac < 0.5 {
			t.Errorf("%s: critical path covers only %.1f%% of runtime", name, 100*frac)
		}
		if cp.Cost <= 0 {
			t.Errorf("%s: nonpositive path cost", name)
		}
	}
}

func TestReportContributionsNormalized(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", 4000)
	rep, _, _, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Base
	for _, c := range rep.Contrib {
		if c < 0 || c > 1 {
			t.Fatalf("contribution out of range: %v", c)
		}
		total += c
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("contributions + base = %v, want 1", total)
	}
	t.Logf("\n%s", rep)
}

func TestDPMatchesBruteForceOnSmallGraph(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "456.hmmer", 40)
	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := g.Construct()
	if err != nil {
		t.Fatal(err)
	}
	// Brute force: longest cost path via DFS memoization over the DAG
	// computed with explicit recursion (independent of topological order).
	adj := make(map[VertexID][]Edge)
	verts := map[VertexID]bool{}
	for _, e := range g.Edges() {
		adj[e.From] = append(adj[e.From], e)
		verts[e.From] = true
		verts[e.To] = true
	}
	memo := make(map[VertexID]int64)
	var down func(v VertexID) int64
	down = func(v VertexID) int64 {
		if m, ok := memo[v]; ok {
			return m
		}
		var best int64
		for _, e := range adj[v] {
			if c := e.Cost + down(e.To); c > best {
				best = c
			}
		}
		memo[v] = best
		return best
	}
	var want int64
	for v := range verts {
		if c := down(v); c > want {
			want = c
		}
	}
	if cp.Cost != want {
		t.Fatalf("DP cost %d, brute force %d", cp.Cost, want)
	}
}

func TestMergeWeights(t *testing.T) {
	tr1 := traceFor(t, uarch.Baseline(), "458.sjeng", 2000)
	tr2 := traceFor(t, uarch.Baseline(), "444.namd", 2000)
	r1, _, _, err := Analyze(tr1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, _, _, err := Analyze(tr2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Merge([]*Report{r1, r2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range uarch.Resources() {
		avg := (r1.Contrib[res] + r2.Contrib[res]) / 2
		if diff := m.Contrib[res] - avg; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: merged %v, want %v", res, m.Contrib[res], avg)
		}
	}
	if _, err := Merge(nil, nil); err == nil {
		t.Fatal("expected error for empty merge")
	}
	if _, err := Merge([]*Report{r1}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for weight length mismatch")
	}
	if _, err := Merge([]*Report{r1}, []float64{-1}); err == nil {
		t.Fatal("expected error for negative weight")
	}
}

func TestBottleneckShiftsWithConfig(t *testing.T) {
	// Starving the machine of integer registers must raise the IntRF
	// contribution relative to a register-rich configuration.
	poor := uarch.Baseline()
	poor.IntRF = 40
	rich := uarch.Baseline()
	rich.IntRF = 256

	trPoor := traceFor(t, poor, "458.sjeng", 4000)
	trRich := traceFor(t, rich, "458.sjeng", 4000)
	rPoor, _, _, err := Analyze(trPoor, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rRich, _, _, err := Analyze(trRich, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rPoor.Contrib[uarch.ResIntRF] <= rRich.Contrib[uarch.ResIntRF] {
		t.Errorf("IntRF contribution did not drop when registers added: poor=%.3f rich=%.3f",
			rPoor.Contrib[uarch.ResIntRF], rRich.Contrib[uarch.ResIntRF])
	}
	t.Logf("poor:\n%s\nrich:\n%s", rPoor, rRich)
}

func TestWriteDOT(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "456.hmmer", 60)
	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := g.Construct()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, cp); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph deg", "->", "color=red", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT output missing %q", want)
		}
	}
	// Exactly the path's edges are red, not their parallel twins.
	if red := strings.Count(out, "color=red"); red != len(cp.Edges) {
		t.Fatalf("%d red edges, want the critical path's %d", red, len(cp.Edges))
	}
	// Every write's error surfaces, even when later writes succeed.
	for fail := 1; fail <= 4; fail++ {
		w := &flakyWriter{fail: fail}
		if err := g.WriteDOT(w, cp); !errors.Is(err, errFlaky) {
			t.Fatalf("write %d failed but WriteDOT returned %v", fail, err)
		}
	}
	// Oversized traces are rejected.
	big := traceFor(t, uarch.Baseline(), "456.hmmer", 1000)
	bg, err := Build(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bg.WriteDOT(&buf, nil); err == nil {
		t.Fatal("expected size rejection")
	}
}

var errFlaky = errors.New("flaky writer")

// flakyWriter fails its fail-th write only.
type flakyWriter struct{ n, fail int }

func (w *flakyWriter) Write(p []byte) (int, error) {
	if w.n++; w.n == w.fail {
		return 0, errFlaky
	}
	return len(p), nil
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := Build(&pipetrace.Trace{}, Options{}); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

func TestVertexRoundTrip(t *testing.T) {
	v := Vertex(123, pipetrace.SI)
	if v.Seq() != 123 || v.Stage() != pipetrace.SI {
		t.Fatalf("round trip: %d %v", v.Seq(), v.Stage())
	}
}

func TestEdgeKindNames(t *testing.T) {
	for k := EdgeKind(0); int(k) < NumEdgeKinds; k++ {
		if k.String() == "" {
			t.Fatalf("edge kind %d unnamed", k)
		}
	}
}
