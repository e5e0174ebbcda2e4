package dse

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"archexplorer/internal/deg"
	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// TestEvaluatorStreamedParity pins the fused stage against a reference
// built outside the evaluator, the check archbench's replay makes: for
// every workload in suite order, Core.Run, then the sequential
// deg.AnalyzeWindowed at the same window and ROB, then Merge. A windowed
// evaluation (fused sim+DEG, the chunk sink feeding the analyzer on its
// window ring) must equal it in per-workload IPC, merged report, window
// stats and committed instructions, and charge only the fused stage.
func TestEvaluatorStreamedParity(t *testing.T) {
	const n, window = 2000, 500
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), n)
	ev.DEGWindow = window
	e, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true)
	if err != nil {
		t.Fatal(err)
	}

	var reports []*deg.Report
	var windows, peakEdges int
	var drops, insts int64
	for k, wl := range ev.Workloads {
		stream, err := workload.CachedTrace(wl, n)
		if err != nil {
			t.Fatal(err)
		}
		core, err := ooo.New(e.Config)
		if err != nil {
			t.Fatal(err)
		}
		tr, stats, err := core.Run(stream)
		core.Release()
		if err != nil {
			t.Fatal(err)
		}
		rep, ws, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{Window: window, ReorderWindow: e.Config.ROBEntries})
		tr.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got := e.PerWorkloadIPC[k]; got != stats.IPC() {
			t.Fatalf("%s: IPC %v, reference %v", wl.Name, got, stats.IPC())
		}
		reports = append(reports, rep)
		windows += ws.Windows
		peakEdges = max(peakEdges, ws.PeakEdges)
		drops += int64(ws.Dropped())
		insts += int64(stats.Committed)
	}
	want, err := deg.Merge(reports, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Report, want) {
		t.Fatalf("streamed merged report differs:\nstreamed  %+v\nreference %+v", e.Report, want)
	}
	if e.DEGWindows != windows || e.DEGPeakEdges != peakEdges || e.DEGDrops != drops {
		t.Fatalf("window stats differ: streamed (%d,%d,%d) reference (%d,%d,%d)",
			e.DEGWindows, e.DEGPeakEdges, e.DEGDrops, windows, peakEdges, drops)
	}
	if e.SimInsts != insts {
		t.Fatalf("committed %d instructions, reference %d", e.SimInsts, insts)
	}
	if e.Times.Sim != 0 || e.Times.DEG != 0 || e.Times.DEGStream == 0 {
		t.Fatalf("streamed stage times misfiled: %+v", e.Times)
	}
}

// TestEvaluatorStreamedProbesStayBuffered: probes need the materialized
// trace for warm-window IPC, so a windowed probe simulates in the sim
// stage and analyzes in the deg stage, even when its prefix spans several
// windows.
func TestEvaluatorStreamedProbesStayBuffered(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.DEGWindow = 100 // a probe simulates 250 instructions: 3 windows
	e, err := ev.Probe(ev.Space.Nearest(uarch.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * len(ev.Workloads); e.DEGWindows != want {
		t.Fatalf("probe analyzed %d windows, want %d", e.DEGWindows, want)
	}
	if e.Times.Sim == 0 || e.Times.DEG == 0 || e.Times.DEGStream != 0 {
		t.Fatalf("probe stage times %+v, want sim and deg only", e.Times)
	}
}

// TestEvaluatorStreamedJournal: windowed (streamed) spans carry
// deg_stream_ns and zero sim/deg stage times; whole-trace spans omit the
// field entirely, keeping pre-streaming journals byte-identical.
func TestEvaluatorStreamedJournal(t *testing.T) {
	spans := func(window int) ([]*obs.EvalSpan, []byte) {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.DEGWindow = window
		rec := obs.New()
		var buf bytes.Buffer
		rec.SetJournalWriter(&buf)
		ev.Obs = rec
		if _, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var out []*obs.EvalSpan
		for _, e := range events {
			if s, ok := e.(*obs.EvalSpan); ok {
				out = append(out, s)
			}
		}
		if len(out) == 0 {
			t.Fatal("no EvalSpan events in journal")
		}
		return out, buf.Bytes()
	}

	streamSpans, _ := spans(300)
	s := streamSpans[len(streamSpans)-1]
	if s.DEGStreamNS <= 0 {
		t.Fatalf("streamed EvalSpan deg_stream_ns = %d, want > 0", s.DEGStreamNS)
	}
	if s.SimNS != 0 || s.DEGNS != 0 {
		t.Fatalf("streamed EvalSpan charges sim/deg stages: sim=%d deg=%d", s.SimNS, s.DEGNS)
	}
	if s.DEGWindows <= 0 {
		t.Fatalf("streamed EvalSpan missing window stats: %+v", s)
	}

	_, raw := spans(0)
	if bytes.Contains(raw, []byte("deg_stream_ns")) {
		t.Fatal("whole-trace journal contains deg_stream_ns; omitempty regression")
	}
}

// TestEvaluatorStreamedFaultInjection: the fused stage is a registered
// fault site — transient failures there retry to the same result, and the
// stage is charged the retry hits. Every trace and chunk is back in its
// pool when the retried evaluation returns.
func TestEvaluatorStreamedFaultInjection(t *testing.T) {
	base := poolLive()
	mk := func(plan *fault.Plan) *Evaluator {
		ev := faultEvaluator(t, plan)
		ev.DEGWindow = 400
		return ev
	}
	clean := mk(nil)
	pt := clean.Space.Nearest(uarch.Baseline())
	want, err := clean.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.MustPlan(
		fault.Injection{Site: fault.SiteDEGStream, Nth: 1, Count: 2, Class: fault.Transient},
	)
	ev := mk(plan)
	got, err := ev.Evaluate(pt, true)
	if err != nil {
		t.Fatalf("transient deg_stream fault surfaced despite retries: %v", err)
	}
	if !reflect.DeepEqual(want.Report, got.Report) || want.PPA != got.PPA {
		t.Fatal("retried streamed evaluation differs from clean run")
	}
	if plan.Hits(fault.SiteDEGStream) < 3 {
		t.Fatalf("expected >= 3 deg_stream hits, got %d", plan.Hits(fault.SiteDEGStream))
	}
	checkPoolBalanced(t, base)
}

// poolLive returns the trace pool's live (taken, unreleased) count: whole
// traces, streamed chunks and window copies alike.
func poolLive() int64 {
	st := pipetrace.TracePoolStats()
	return st.Gets - st.Puts
}

// checkPoolBalanced fails the test unless every pool-owned trace or chunk
// taken since base has been released. Releases are synchronous — no stage
// attempt outlives the call that ran it — so the check needs no wait.
func checkPoolBalanced(t *testing.T, base int64) {
	t.Helper()
	if leaked := poolLive() - base; leaked != 0 {
		t.Fatalf("%d traces or chunks live after the call returned (want 0)", leaked)
	}
}

// checkGoroutines fails the test unless the goroutine count is back at
// base. A goroutine that has already signalled its waiter (wg.Done, a
// closed channel) may still be on its way out, so this allows 50 ms for
// such exits: far below the hundreds of milliseconds an attempt left
// running past its timeout would stay alive.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(50 * time.Millisecond)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running after the call returned (want %d)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// stalledDEGEvaluator is a sequential evaluator whose first DEG attempt
// stalls 1 s under a 250 ms stage timeout. The timeout bounds every stage
// attempt, including the retry, so it leaves the real work (well under
// 50 ms each, unloaded) headroom for a loaded -race run while staying far
// below the injected stall.
func stalledDEGEvaluator() *Evaluator {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.Parallelism = 1
	ev.StageTimeout = 250 * time.Millisecond
	ev.Retry = noSleepRetry
	ev.Faults = fault.MustPlan(fault.Injection{
		Site: fault.SiteDEG, Nth: 1, Count: 1, Class: fault.Transient,
		Delay: time.Second,
	})
	ev.Obs = obs.New()
	return ev
}

// TestNoTraceLeakWithStageTimeouts: with stage timeouts enabled, every
// evaluation has released its trace by the time Evaluate returns.
// Previously the evaluator skipped tr.Release() whenever StageTimeout != 0 —
// every (config, workload) run leaked its records for the life of the
// campaign.
func TestNoTraceLeakWithStageTimeouts(t *testing.T) {
	base := poolLive()

	// Plain timed run: generous timeout, nothing fires, traces must still
	// recycle.
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.Parallelism = 1
	ev.StageTimeout = time.Minute
	if _, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true); err != nil {
		t.Fatal(err)
	}
	checkPoolBalanced(t, base)

	// A DEG attempt that times out (injected stall) is cancelled mid-stall
	// and the retry succeeds; the stall ends with the attempt, so nothing
	// still reads the trace when Evaluate returns and the pool is balanced
	// at once.
	ev2 := stalledDEGEvaluator()
	e, err := ev2.Evaluate(ev2.Space.Nearest(uarch.Baseline()), true)
	if err != nil {
		t.Fatal(err)
	}
	checkPoolBalanced(t, base)
	if e.Report == nil {
		t.Fatal("retried evaluation lost its report")
	}
	if got := ev2.Obs.Counter(obs.MetricTimeouts).Value(); got == 0 {
		t.Fatal("injected stall did not trip the stage timeout")
	}
}

// TestCancelStalledDEGStage: a DEG attempt stalled past the stage timeout
// is cancelled, not abandoned — the evaluation succeeds on the retry,
// journals exactly one timeout retry, and leaves no goroutine behind and
// no trace unreleased when Evaluate returns.
func TestCancelStalledDEGStage(t *testing.T) {
	ev := stalledDEGEvaluator()
	var buf bytes.Buffer
	ev.Obs.SetJournalWriter(&buf)
	pt := ev.Space.Nearest(uarch.Baseline())
	goroutines, pools := runtime.NumGoroutine(), poolLive()
	if _, err := ev.Evaluate(pt, true); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, goroutines)
	checkPoolBalanced(t, pools)

	if err := ev.Obs.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	timeouts := 0
	for _, e := range events {
		if f, ok := e.(*obs.FaultEvent); ok && f.Action == "retry" && f.Class == "timeout" {
			if f.Site != fault.SiteDEG {
				t.Fatalf("timeout retry at %q, want %q", f.Site, fault.SiteDEG)
			}
			timeouts++
		}
	}
	if timeouts != 1 {
		t.Fatalf("journaled %d timeout retries, want 1", timeouts)
	}
}

// TestCancelTimedOutStream: a streamed evaluation that runs past its stage
// timeout stops at the next chunk and fails with a TimeoutError; the
// simulator and the window ring are both gone, and every chunk and window
// trace is back in its pool, by the time Evaluate returns.
func TestCancelTimedOutStream(t *testing.T) {
	const n = 200000
	suite := workload.Suite17()[:1]
	// A warm trace cache puts the whole 10 ms in the deg_stream stage.
	if _, err := workload.CachedTrace(suite[0], n); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(uarch.StandardSpace(), suite, n)
	ev.Parallelism = 1
	ev.DEGWindow = 2000
	ev.StageTimeout = 10 * time.Millisecond
	pt := ev.Space.Nearest(uarch.Baseline())
	goroutines, pools := runtime.NumGoroutine(), poolLive()
	_, err := ev.Evaluate(pt, true)
	var te *fault.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *fault.TimeoutError", err)
	}
	if te.Site != fault.SiteDEGStream {
		t.Fatalf("timeout at %q, want %q", te.Site, fault.SiteDEGStream)
	}
	checkGoroutines(t, goroutines)
	checkPoolBalanced(t, pools)
}
