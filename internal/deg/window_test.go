package deg

// Tests for the streaming windowed analyzer: exact equality with Analyze on
// traces that fit one window, bounded divergence across windows on every
// seeded workload, determinism across pooled-buffer reuse (including
// concurrent use, for -race), context-margin clipping, and the Attribute /
// Merge bugfix sweep.

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// TestAnalyzeWindowedSingleWindowExact: a window covering the trace is
// whole-trace analysis, buffered or streamed — including on a trace without
// a cycle count, where the runtime falls back to the critical path's span
// as in Attribute, not to the trace's F1→C span the multi-window stitch
// uses.
func TestAnalyzeWindowedSingleWindowExact(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", 1500)
	noCycles := &pipetrace.Trace{Records: tr.Records}
	for _, tr := range []*pipetrace.Trace{tr, noCycles} {
		want, g, cp, err := Analyze(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Cycles == 0 && (want.L != cp.Span || cp.Span == tr.Span()) {
			t.Fatalf("fixture: L=%d, path span %d, trace span %d; want L = path span != trace span",
				want.L, cp.Span, tr.Span())
		}
		for _, w := range []int{0, len(tr.Records), len(tr.Records) + 7} {
			got, st, err := AnalyzeWindowed(tr, WindowOptions{Window: w})
			if err != nil {
				t.Fatalf("cycles %d window %d: %v", tr.Cycles, w, err)
			}
			wantSt := &WindowStats{Windows: 1, PeakEdges: g.NumEdges(), PeakVertices: g.NumVertices}
			if !reflect.DeepEqual(st, wantSt) {
				t.Fatalf("cycles %d window %d: stats %+v, want %+v", tr.Cycles, w, st, wantSt)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cycles %d window %d: report differs from whole-trace Analyze\n got %+v\nwant %+v",
					tr.Cycles, w, got, want)
			}
			if got, _, _ := streamReport(t, tr, WindowOptions{Window: w}, 512); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycles %d window %d: streamed report differs from whole-trace Analyze\n got %+v\nwant %+v",
					tr.Cycles, w, got, want)
			}
		}
	}
}

// TestAnalyzeWindowedParity pins the acceptance criterion: on every seeded
// workload trace, multi-window analysis reproduces the whole-trace
// per-resource contributions within 1% absolute.
func TestAnalyzeWindowedParity(t *testing.T) {
	const n, window = 4000, 1000
	cfg := uarch.Baseline()
	var worst float64
	var worstAt string
	for _, p := range workload.All() {
		tr := traceFor(t, cfg, p.Name, n)
		whole, _, _, err := Analyze(tr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		win, st, err := AnalyzeWindowed(tr, WindowOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if st.Windows < 2 {
			t.Fatalf("%s: %d windows, want a multi-window run", p.Name, st.Windows)
		}
		if st.Dropped() != 0 {
			t.Fatalf("%s: %d defensively dropped edges in windowed build", p.Name, st.Dropped())
		}
		if win.L != whole.L {
			t.Fatalf("%s: windowed L=%d, whole-trace L=%d", p.Name, win.L, whole.L)
		}
		for _, res := range uarch.Resources() {
			diff := win.Contrib[res] - whole.Contrib[res]
			if diff < 0 {
				diff = -diff
			}
			if diff > worst {
				worst, worstAt = diff, p.Name+"/"+res.String()
			}
			if diff > 0.01 {
				t.Errorf("%s: %s contribution diverges %.4f (windowed %.4f vs whole %.4f)",
					p.Name, res, diff, win.Contrib[res], whole.Contrib[res])
			}
		}
	}
	t.Logf("worst per-resource divergence: %.5f at %s", worst, worstAt)
}

// TestAnalyzeWindowedDeterministic pins that pooled-buffer reuse cannot leak
// state between runs: repeated and concurrent analyses of the same trace
// return identical reports and stats.
func TestAnalyzeWindowedDeterministic(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "429.mcf", 3000)
	opts := WindowOptions{Window: 700}
	wantRep, wantSt, err := AnalyzeWindowed(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, st, err := AnalyzeWindowed(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, wantRep) || !reflect.DeepEqual(st, wantSt) {
			t.Fatalf("rerun %d differs: %+v vs %+v", i, rep, wantRep)
		}
	}
	// Concurrent runs share the pool; each must still be self-consistent.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	reps := make([]*Report, 8)
	for i := range reps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], _, errs[i] = AnalyzeWindowed(tr, opts)
		}()
	}
	wg.Wait()
	for i := range reps {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(reps[i], wantRep) {
			t.Fatalf("concurrent run %d differs", i)
		}
	}
}

func TestAnalyzeWindowedClipsDistantProducers(t *testing.T) {
	var recs []pipetrace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, mkRecord(i, int64(3*i), isa.OpIntAlu))
	}
	recs[6].SetResourceDeps(pipetrace.ResourceDep{Resource: uarch.ResROB, Producer: 0})
	tr := mkTrace(recs...)

	// Default overlap covers the whole trace: the long-range edge is seen
	// and attributed exactly once.
	rep, st, err := AnalyzeWindowed(tr, WindowOptions{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ClippedDeps != 0 {
		t.Fatalf("clipped %d deps under the default overlap", st.ClippedDeps)
	}
	if rep.EdgeCount[uarch.ResROB] != 1 {
		t.Fatalf("ROB edge attributed %d times, want 1", rep.EdgeCount[uarch.ResROB])
	}

	// A one-instruction margin cannot reach producer 0 from the window that
	// owns instruction 6; the dependence is clipped and counted, not
	// silently dropped or mis-addressed.
	_, st, err = AnalyzeWindowed(tr, WindowOptions{Window: 2, Overlap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ClippedDeps == 0 {
		t.Fatal("expected the out-of-margin producer to be clipped")
	}
	if st.Dropped() != 0 {
		t.Fatalf("clipping must not count as a defensive drop: %+v", st)
	}
}

func TestAnalyzeWindowedEmptyTrace(t *testing.T) {
	if _, _, err := AnalyzeWindowed(&pipetrace.Trace{}, WindowOptions{Window: 10}); err == nil {
		t.Fatal("expected error for empty trace")
	}
}

// TestAttributeSpanFallback pins the bugfix: a trace without a cycle count
// must attribute against the critical path's span, not against L=1 (which
// reported every resource at thousands of percent).
func TestAttributeSpanFallback(t *testing.T) {
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
	tr.Cycles = 0 // simulate a trace missing its runtime

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := g.Construct()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Span <= 1 {
		t.Fatalf("fixture path span %d too small to distinguish the fallback", cp.Span)
	}
	rep := Attribute(tr, cp)
	if rep.L != cp.Span {
		t.Fatalf("L=%d, want the path span %d", rep.L, cp.Span)
	}
	for _, c := range rep.Contrib {
		if c > 1 {
			t.Fatalf("contribution %v exceeds 100%% under the span fallback", c)
		}
	}
}

// TestAttributeClampsNegativeBase pins the other half of the bugfix: when
// attributed delay exceeds L, Base is clamped to zero and flagged instead of
// going silently negative.
func TestAttributeClampsNegativeBase(t *testing.T) {
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
	tr.Cycles = 5 // undercounts the 10-cycle stall on the path

	g, err := Build(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := g.Construct()
	if err != nil {
		t.Fatal(err)
	}
	rep := Attribute(tr, cp)
	if !rep.BaseClamped {
		t.Fatal("expected BaseClamped for attributed delay > L")
	}
	if rep.Base != 0 {
		t.Fatalf("Base=%v after clamping, want 0", rep.Base)
	}
	if !strings.Contains(rep.String(), "clamped") {
		t.Fatal("String() does not surface the clamp warning")
	}
}

func TestMergeSingleReport(t *testing.T) {
	a := &Report{L: 100, Base: 0.7}
	a.Contrib[uarch.ResROB] = 0.3
	a.DelayByRes[uarch.ResROB] = 30
	a.EdgeCount[uarch.ResROB] = 3
	m, err := Merge([]*Report{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, a) {
		t.Fatalf("single-report merge altered the report:\n got %+v\nwant %+v", m, a)
	}
}

func TestMergeZeroWeightMixedWithPositive(t *testing.T) {
	a := &Report{L: 100, Base: 0.7}
	a.Contrib[uarch.ResROB] = 0.3
	a.DelayByRes[uarch.ResROB] = 30
	a.EdgeCount[uarch.ResROB] = 3
	b := &Report{L: 200, Base: 0.5}
	b.Contrib[uarch.ResIQ] = 0.5
	b.DelayByRes[uarch.ResIQ] = 100
	b.EdgeCount[uarch.ResIQ] = 7

	m, err := Merge([]*Report{a, b}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Weighted fields follow b alone; EdgeCount stays a diagnostic tally
	// over every input.
	if m.L != b.L || m.Base != b.Base ||
		m.Contrib[uarch.ResROB] != 0 || m.Contrib[uarch.ResIQ] != b.Contrib[uarch.ResIQ] ||
		m.DelayByRes[uarch.ResIQ] != b.DelayByRes[uarch.ResIQ] {
		t.Fatalf("zero-weighted report leaked into the merge: %+v", m)
	}
	if m.EdgeCount[uarch.ResROB] != 3 || m.EdgeCount[uarch.ResIQ] != 7 {
		t.Fatalf("EdgeCount should sum over all inputs: %+v", m.EdgeCount)
	}
}

func TestMergeWeightsNormalized(t *testing.T) {
	a := &Report{L: 100, Base: 0.7}
	a.Contrib[uarch.ResROB] = 0.3
	b := &Report{L: 200, Base: 0.5}
	b.Contrib[uarch.ResIQ] = 0.5
	m1, err := Merge([]*Report{a, b}, []float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Merge([]*Report{a, b}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("weights {2,6} and {1,3} merged differently:\n%+v\n%+v", m1, m2)
	}
}

func TestMergePropagatesBaseClamped(t *testing.T) {
	plain := &Report{L: 100, Base: 0.5}
	clamped := &Report{L: 100, BaseClamped: true}
	m, err := Merge([]*Report{plain, clamped}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !m.BaseClamped {
		t.Fatal("clamp flag lost in merge")
	}
	// A zero-weighted clamped report contributes nothing, including its flag.
	m, err = Merge([]*Report{plain, clamped}, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if m.BaseClamped {
		t.Fatal("zero-weighted report propagated its clamp flag")
	}
}
