// Package archexplorer's root benchmarks regenerate every table and figure
// of the paper (one benchmark per experiment; see DESIGN.md's experiment
// index) plus micro-benchmarks for the main computational kernels. Each
// experiment benchmark reports its output size and writes the rows/series
// through the exp harness; run with -benchtime=1x for a single regeneration:
//
//	go test -bench=. -benchmem -benchtime=1x
package archexplorer

import (
	"bytes"
	"math/rand"
	"testing"

	"archexplorer/internal/deg"
	"archexplorer/internal/dse"
	"archexplorer/internal/exp"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pareto"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// benchExperiment runs one registered experiment with benchmark-friendly
// scaling.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := exp.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := exp.Options{Fast: true, Budget: 120, Seeds: 1, Samples: 30}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(opts, &buf); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(buf.Len()), "output-bytes")
	}
}

func BenchmarkTable1Baseline(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable3Workloads(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkTable4DesignSpace(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5Comparison(b *testing.B)  { benchExperiment(b, "table5") }

func BenchmarkFig1DesignSpace(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkFig2Doubling(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig3Stepwise(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4OldDEG(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5OldDEGErrors(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig9NewDEG(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10SearchPath(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Hypervolume(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12HVCurves(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13Frontiers(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkGraphStats(b *testing.B)       { benchExperiment(b, "graphstats") }

// --- Micro-benchmarks for the computational kernels -----------------------

// BenchmarkSimulatorThroughput measures the cycle-level core model in
// simulated instructions per wall-clock second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p, err := workload.ByName("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, 20000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := ooo.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Run(stream); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// annotatedTrace simulates n instructions of the named workload on the
// baseline design with DEG annotations on.
func annotatedTrace(b *testing.B, name string, n int) *pipetrace.Trace {
	b.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, n)
	if err != nil {
		b.Fatal(err)
	}
	core, err := ooo.New(uarch.Baseline())
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := core.Run(stream)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// reportInstRate reports analyzed instructions per second, the unit
// benchgate gates the DEG benchmarks on.
func reportInstRate(b *testing.B, instsPerOp int) {
	b.ReportMetric(float64(instsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkDEGAnalyze measures induced-DEG construction plus Algorithm 1
// plus attribution on a 20k-instruction trace, through the public Analyze
// (a fresh graph per call).
func BenchmarkDEGAnalyze(b *testing.B) {
	tr := annotatedTrace(b, "458.sjeng", 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := deg.Analyze(tr, deg.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportInstRate(b, len(tr.Records))
}

// BenchmarkDEGAnalyzeWindowed measures the same analysis through the
// windowed, allocation-pooled path (10 windows of 2000 instructions).
// Compare allocs/op against BenchmarkDEGAnalyze: peak memory is bounded by
// one window's graph, and the pooled buffers amortize to near-zero steady-
// state allocation.
func BenchmarkDEGAnalyzeWindowed(b *testing.B) {
	tr := annotatedTrace(b, "458.sjeng", 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{Window: 2000}); err != nil {
			b.Fatal(err)
		}
	}
	reportInstRate(b, len(tr.Records))
}

// BenchmarkDEGAnalyzeProbe is the DEG work of one explore probe: the
// evaluator's whole-trace analysis call (AnalyzeWindowed, Window 0) over
// 500-instruction annotated traces of the 12 SPEC06 workloads. One op
// analyzes all 12 traces.
func BenchmarkDEGAnalyzeProbe(b *testing.B) {
	const n = 500
	var traces []*pipetrace.Trace
	for _, p := range workload.Suite06() {
		traces = append(traces, annotatedTrace(b, p.Name, n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			if _, _, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportInstRate(b, n*len(traces))
}

// BenchmarkHypervolume3D measures the exact hypervolume computation on a
// 200-point set.
func BenchmarkHypervolume3D(b *testing.B) {
	var pts []pareto.Point
	state := uint64(88172645463325252)
	rnd := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000000) / 1000000
	}
	for i := 0; i < 200; i++ {
		pts = append(pts, pareto.Point{Perf: rnd(), Power: rnd(), Area: rnd()})
	}
	ref := pareto.Reference{Perf: 0, Power: 1, Area: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.Hypervolume(pts, ref)
	}
}

// BenchmarkEvaluator measures one full (config x 4 workloads) PPA
// evaluation, the unit of the simulation budget.
func BenchmarkEvaluator(b *testing.B) {
	suite := workload.Suite06()[:4]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := dse.NewEvaluator(uarch.StandardSpace(), suite, 4000)
		if _, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEvaluatorBatch measures a batch of distinct design points on a
// 4-workload suite at the given parallelism. Comparing the Parallelism=1
// and Parallelism=4 variants shows the fan-out speedup; on a single-core
// host the two converge, since the same work is just interleaved.
func benchEvaluatorBatch(b *testing.B, parallelism int) {
	suite := workload.Suite06()[:4]
	space := uarch.StandardSpace()
	rng := rand.New(rand.NewSource(42))
	pts := make([]uarch.Point, 4)
	for i := range pts {
		pts[i] = space.Random(rng)
	}
	if _, err := workload.Trace(suite[0], 4000); err != nil { // warm compile caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := dse.NewEvaluator(space, suite, 4000)
		ev.Parallelism = parallelism
		if _, err := ev.EvaluateBatch(pts, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluatorSequential(b *testing.B) { benchEvaluatorBatch(b, 1) }
func BenchmarkEvaluatorParallel4(b *testing.B)  { benchEvaluatorBatch(b, 4) }

func BenchmarkAblation(b *testing.B)    { benchExperiment(b, "ablation") }
func BenchmarkSec2Stats(b *testing.B)   { benchExperiment(b, "sec2stats") }
func BenchmarkCPIStack(b *testing.B)    { benchExperiment(b, "cpistack") }
func BenchmarkCalipersDSE(b *testing.B) { benchExperiment(b, "calipersdse") }
