// Sim→DEG pipeline benchmarks: the bench-pipeline Makefile target runs
// exactly these. BenchmarkPipelineBuffered measures the classic two-phase
// flow — materialize the full trace, then run the windowed analysis over
// it — while BenchmarkPipelineStream measures the fused flow, where the
// simulator's chunks feed the StreamAnalyzer directly and no full trace
// ever exists. Both produce bit-identical reports (pinned by
// internal/deg's stream parity tests); the difference is peak memory and
// the overlap of simulation with analysis. BENCH_pipeline.json records
// the before/after numbers, including the live-heap measurements from the
// Large variants.
//
//	make bench-pipeline   # 20k-instruction throughput benchmarks, -benchmem
//	make bench-all        # every bench family, gated against BENCH_*.json
package archexplorer

import (
	"io"
	"runtime"
	"testing"
	"unsafe"

	"archexplorer/internal/deg"
	"archexplorer/internal/isa"
	"archexplorer/internal/obs"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// pipelineWindow matches the evaluator's default windowed-analysis
// configuration closely enough to be representative: 2000-instruction
// windows with the ROB-derived margin.
const pipelineWindow = 2000

func pipelineStream(b *testing.B, n int) []isa.Inst {
	b.Helper()
	p, err := workload.ByName("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, n)
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// runBuffered simulates into a full trace and analyzes it. The core goes
// back to the pool as soon as its run returns (the trace does not share
// its storage), so each iteration times recycled construction, as the
// evaluator pays it.
func runBuffered(b *testing.B, cfg uarch.Config, stream []isa.Inst) *pipetrace.Trace {
	b.Helper()
	core, err := ooo.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, _, err := core.Run(stream)
	core.Release()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{
		Window: pipelineWindow, ReorderWindow: cfg.ROBEntries,
	}); err != nil {
		b.Fatal(err)
	}
	return tr
}

func runStreamed(b *testing.B, cfg uarch.Config, stream []isa.Inst, probe func(sa *deg.StreamAnalyzer)) {
	runStreamedWorkers(b, cfg, stream, 1, probe)
}

// runStreamedWorkers is runStreamed with an explicit analysis worker
// count; the benchmarks pin it instead of deriving it from the host so a
// committed baseline means the same thing on every machine. Like
// runBuffered, it releases the core once its run returns.
func runStreamedWorkers(b *testing.B, cfg uarch.Config, stream []isa.Inst, workers int, probe func(sa *deg.StreamAnalyzer)) {
	b.Helper()
	core, err := ooo.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sa, err := deg.NewStreamAnalyzer(deg.WindowOptions{
		Window: pipelineWindow, ReorderWindow: cfg.ROBEntries,
		Workers: workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	fed := 0
	stats, err := core.RunStream(stream, 0, func(c *pipetrace.Trace) error {
		err := sa.Feed(c)
		if probe != nil {
			fed += len(c.Records)
			if fed >= len(stream)/2 {
				probe(sa)
				probe = nil
			}
		}
		return err
	})
	core.Release()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := sa.Finish(stats.Cycles); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPipelineBuffered: simulate to a pooled full trace, then run the
// windowed DEG analysis over it. Peak memory holds the whole trace plus
// one window's graph.
func BenchmarkPipelineBuffered(b *testing.B) {
	stream := pipelineStream(b, 20000)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBuffered(b, cfg, stream).Release()
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkPipelineStream: the fused sim→DEG flow over the same trace, at
// one analysis worker. Peak memory holds only the analyzer's
// window+margin working set of records, never the full trace. One worker
// is a one-slot window ring, so each window runs on its own goroutine
// while the simulation feeds the next: on a multicore host that overlaps
// one window with the simulation, which also raises the same-run baseline
// that bench-pipeline-par divides BenchmarkPipelineStreamPar by.
func BenchmarkPipelineStream(b *testing.B) {
	stream := pipelineStream(b, 20000)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStreamed(b, cfg, stream, nil)
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkPipelineStreamPar is the fused flow with up to 4 windows
// analyzed at once — the dominant pipeline cost made parallel: on a
// 2-vCPU Xeon at -cpu 1, BenchmarkSimFull takes 5.1 ms and
// BenchmarkPipelineStream 33 ms per 20k-instruction run, so DEG analysis
// is ~85% of fused wall-clock. Reports are bit-identical to the
// one-worker run; the bench-pipeline-par Makefile target gates the
// speedup against same-run BenchmarkPipelineStream on multicore hosts and
// against a no-regression floor on hosts with fewer than 4 cores, where
// parallel windows cannot scale fully and must not cost throughput.
func BenchmarkPipelineStreamPar(b *testing.B) {
	stream := pipelineStream(b, 20000)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStreamedWorkers(b, cfg, stream, 4, nil)
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkPipelineStreamSpans is BenchmarkPipelineStream plus exactly the
// per-evaluation span-instrumentation work the evaluator performs when a
// journal is attached: clock reads and live-track calls around each stage,
// and the commit-phase emission of the stage/eval/batch span events into a
// journal. The bench-spans Makefile target gates this against the
// uninstrumented BenchmarkPipelineStream of the same run (benchgate's
// bench: baseline), requiring the overhead to stay under 2% — the span
// layer must be free enough to leave on for every journaled campaign.
func BenchmarkPipelineStreamSpans(b *testing.B) {
	stream := pipelineStream(b, 20000)
	cfg := uarch.Baseline()
	rec := obs.New()
	rec.SetJournalWriter(io.Discard)
	stages := []string{"trace", "deg_stream", "power"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Worker side: per-stage clock reads and live-tracking hooks, with
		// the span records accumulated exactly like dse's stage capture.
		spans := make([]obs.SpanEvent, 0, len(stages))
		for _, name := range stages {
			start := rec.Clock()
			done := rec.TrackSpan(obs.SpanStage, name, "458.sjeng", 1)
			if name == "deg_stream" {
				runStreamed(b, cfg, stream, nil)
			}
			done()
			spans = append(spans, obs.SpanEvent{
				SpanKind: obs.SpanStage, Name: name, Workload: "458.sjeng",
				Worker: 1, StartNS: start, DurNS: rec.Clock() - start,
			})
		}
		// Commit side: id assignment and journal emission, children first.
		batch := rec.NextSpan()
		eval := rec.NextSpan()
		for k := range spans {
			spans[k].Span = rec.NextSpan()
			spans[k].Parent = eval
			rec.Emit(&spans[k])
		}
		rec.Emit(&obs.SpanEvent{Span: eval, Parent: batch, SpanKind: obs.SpanEval, Name: "bench"})
		rec.Emit(&obs.SpanEvent{Span: batch, SpanKind: obs.SpanBatch, Name: "evaluate"})
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// reportLiveHeap forces a collection and reports the live heap, with the
// share of it that is the input stream beside it. The stream is O(n), at
// the size of isa.Inst per instruction, and the process-wide trace cache
// holds it for the whole run; what the pipeline itself holds is the
// difference, which the streamed variants bound by O(window + margin).
func reportLiveHeap(b *testing.B, stream []isa.Inst) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "live-heap-bytes")
	b.ReportMetric(float64(uintptr(len(stream))*unsafe.Sizeof(isa.Inst{})), "stream-bytes")
}

// BenchmarkPipelineBufferedLarge measures live heap on a 1M-instruction
// trace at the buffered pipeline's peak — trace fully materialized,
// analysis done, trace not yet released. Run with -benchtime=1x. The
// sample also counts the core runBuffered released: its pool keeps it
// through the one forced collection (1.7 MB at the baseline config).
func BenchmarkPipelineBufferedLarge(b *testing.B) {
	stream := pipelineStream(b, 1_000_000)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := runBuffered(b, cfg, stream)
		b.StopTimer()
		reportLiveHeap(b, stream)
		b.StartTimer()
		tr.Release()
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkPipelineStreamLarge is the fused flow over the same
// 1M-instruction trace; live heap is sampled mid-stream, where the
// analyzer's retained chunks and its one window copy are at their
// steady-state window+margin size. The peak buffered record count is
// reported alongside so the memory bound
// (window + 2·overlap + chunk − 1 + window + 2·overlap records) is
// checkable from the output.
func BenchmarkPipelineStreamLarge(b *testing.B) {
	stream := pipelineStream(b, 1_000_000)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStreamed(b, cfg, stream, func(sa *deg.StreamAnalyzer) {
			b.StopTimer()
			reportLiveHeap(b, stream)
			b.ReportMetric(float64(sa.PeakBufferedRecords()), "peak-buffered-records")
			b.StartTimer()
		})
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkPipelineStreamLargePar: the 1M-instruction fused flow at 4
// analysis workers — the headline parallel measurement (target ≥2.5×
// BenchmarkPipelineStreamLarge on a ≥4-core host). Peak buffered records
// hold one in-flight window copy per worker
// (workers·(window + 2·overlap)) but stay trace-length-independent,
// which the reported metric makes checkable from the output.
func BenchmarkPipelineStreamLargePar(b *testing.B) {
	stream := pipelineStream(b, 1_000_000)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runStreamedWorkers(b, cfg, stream, 4, func(sa *deg.StreamAnalyzer) {
			b.StopTimer()
			reportLiveHeap(b, stream)
			b.ReportMetric(float64(sa.PeakBufferedRecords()), "peak-buffered-records")
			b.StartTimer()
		})
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}
