package dse

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// TestEvaluatorStreamedParity pins the tentpole at the evaluator level: a
// streamed evaluation (fused sim+DEG over the bounded chunk channel) is
// byte-identical to the buffered windowed path in everything deterministic —
// PPA, per-workload IPC, merged report, window stats, budget accounting.
func TestEvaluatorStreamedParity(t *testing.T) {
	buffered := NewEvaluator(uarch.StandardSpace(), miniSuite(), 2000)
	buffered.DEGWindow = 500
	streamed := NewEvaluator(uarch.StandardSpace(), miniSuite(), 2000)
	streamed.DEGWindow = 500
	streamed.DEGStream = true

	pt := buffered.Space.Nearest(uarch.Baseline())
	eB, err := buffered.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}
	eS, err := streamed.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}

	if eB.PPA != eS.PPA {
		t.Fatalf("streaming changed PPA: %+v vs %+v", eB.PPA, eS.PPA)
	}
	if !reflect.DeepEqual(eB.PerWorkloadIPC, eS.PerWorkloadIPC) {
		t.Fatalf("per-workload IPC differs: %v vs %v", eB.PerWorkloadIPC, eS.PerWorkloadIPC)
	}
	if !reflect.DeepEqual(eB.Report, eS.Report) {
		t.Fatalf("streamed merged report differs:\nbuffered %+v\nstreamed %+v", eB.Report, eS.Report)
	}
	if eB.DEGWindows != eS.DEGWindows || eB.DEGPeakEdges != eS.DEGPeakEdges || eB.DEGDrops != eS.DEGDrops {
		t.Fatalf("window stats differ: buffered (%d,%d,%d) streamed (%d,%d,%d)",
			eB.DEGWindows, eB.DEGPeakEdges, eB.DEGDrops,
			eS.DEGWindows, eS.DEGPeakEdges, eS.DEGDrops)
	}
	if eB.SimInsts != eS.SimInsts || eB.SimsAt != eS.SimsAt {
		t.Fatalf("accounting differs: insts %d vs %d, sims %v vs %v",
			eB.SimInsts, eS.SimInsts, eB.SimsAt, eS.SimsAt)
	}
	// Stage times land in the fused bucket on the streamed run.
	if eS.Times.Sim != 0 || eS.Times.DEG != 0 || eS.Times.DEGStream == 0 {
		t.Fatalf("streamed stage times misfiled: %+v", eS.Times)
	}
	if eB.Times.DEGStream != 0 {
		t.Fatalf("buffered run charged the stream stage: %+v", eB.Times)
	}
}

// TestEvaluatorStreamedWholeTrace: DEGStream with no window streams into the
// whole-trace short-circuit and still matches the plain whole-trace report.
func TestEvaluatorStreamedWholeTrace(t *testing.T) {
	whole := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1200)
	stream := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1200)
	stream.DEGStream = true

	pt := whole.Space.Nearest(uarch.Baseline())
	eW, err := whole.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}
	eS, err := stream.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eW.Report, eS.Report) || eW.PPA != eS.PPA {
		t.Fatal("whole-trace streamed evaluation differs from buffered")
	}
}

// TestEvaluatorStreamedProbesStayBuffered: probes need the materialized
// trace for warm-window IPC, so DEGStream must not change probe results.
func TestEvaluatorStreamedProbesStayBuffered(t *testing.T) {
	plain := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	plain.DEGWindow = 400
	stream := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	stream.DEGWindow = 400
	stream.DEGStream = true

	pt := plain.Space.Nearest(uarch.Baseline())
	eP, err := plain.Probe(pt)
	if err != nil {
		t.Fatal(err)
	}
	eS, err := stream.Probe(pt)
	if err != nil {
		t.Fatal(err)
	}
	if eP.PPA != eS.PPA || !reflect.DeepEqual(eP.Report, eS.Report) {
		t.Fatal("DEGStream changed probe results")
	}
	if eS.Times.DEGStream != 0 {
		t.Fatalf("probe ran the fused stage: %+v", eS.Times)
	}
}

// TestEvaluatorStreamedJournal: streamed spans carry deg_stream_ns and zero
// sim/deg stage times; buffered spans omit the field entirely, keeping
// pre-streaming journals byte-identical.
func TestEvaluatorStreamedJournal(t *testing.T) {
	spans := func(streamed bool) ([]*obs.EvalSpan, []byte) {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.DEGWindow = 300
		ev.DEGStream = streamed
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

	streamSpans, _ := spans(true)
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

	_, raw := spans(false)
	if bytes.Contains(raw, []byte("deg_stream_ns")) {
		t.Fatal("buffered journal contains deg_stream_ns; omitempty regression")
	}
}

// TestEvaluatorStreamedFaultInjection: the fused stage is a registered
// fault site — transient failures there retry to the same result, and the
// stage is charged the retry hits.
func TestEvaluatorStreamedFaultInjection(t *testing.T) {
	mk := func(plan *fault.Plan) *Evaluator {
		ev := faultEvaluator(t, plan)
		ev.DEGWindow = 400
		ev.DEGStream = true
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
}

// tracePoolLive returns the trace pool's live (unreleased) trace count.
func tracePoolLive() int64 {
	st := pipetrace.TracePoolStats()
	return st.Gets - st.Puts
}

// waitPoolDrained polls until every pool-owned trace above base is released
// — abandoned timed-out attempts release asynchronously — or fails the test.
func waitPoolDrained(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Stragglers from earlier tests can release below the baseline;
		// only a positive residue is a leak.
		leaked := tracePoolLive() - base
		if leaked <= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d traces leaked (never released back to the pool)", leaked)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNoTraceLeakWithStageTimeouts is the satellite-1 regression test: with
// stage timeouts enabled, every evaluation still releases its trace.
// Previously the evaluator skipped tr.Release() whenever StageTimeout != 0 —
// every (config, workload) run leaked its records and arenas for the life
// of the campaign.
func TestNoTraceLeakWithStageTimeouts(t *testing.T) {
	base := tracePoolLive()

	// Plain timed run: generous timeout, nothing fires, traces must still
	// recycle.
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.Parallelism = 1
	ev.StageTimeout = time.Minute
	if _, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true); err != nil {
		t.Fatal(err)
	}
	waitPoolDrained(t, base)

	// A DEG attempt that times out (injected stall) and is abandoned: the
	// abandoned reader holds its own reference, the retry succeeds, and
	// once the straggler finishes the pool is balanced again. The timeout
	// bounds every stage attempt, including the retry, so it leaves the
	// real work (well under 50 ms each, unloaded) headroom for a loaded
	// -race run while staying far below the injected stall.
	plan := fault.MustPlan(fault.Injection{
		Site: fault.SiteDEG, Nth: 1, Count: 1, Class: fault.Transient,
		Delay: time.Second,
	})
	ev2 := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev2.Parallelism = 1
	ev2.StageTimeout = 250 * time.Millisecond
	ev2.Retry = noSleepRetry
	ev2.Faults = plan
	ev2.Obs = obs.New()
	e, err := ev2.Evaluate(ev2.Space.Nearest(uarch.Baseline()), true)
	if err != nil {
		t.Fatal(err)
	}
	if e.Report == nil {
		t.Fatal("retried evaluation lost its report")
	}
	if got := ev2.Obs.Counter(obs.MetricTimeouts).Value(); got == 0 {
		t.Fatal("injected stall did not trip the stage timeout")
	}
	waitPoolDrained(t, base)
}

// TestGuardedStageDiscardsLateResult exercises the abandoned-attempt drain
// directly: a stage that times out but eventually succeeds hands its pooled
// result to the discard hook instead of stranding it.
func TestGuardedStageDiscardsLateResult(t *testing.T) {
	base := tracePoolLive()
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
	ev.StageTimeout = 20 * time.Millisecond
	sr := &stageRunner{ev: ev, workload: "synthetic"}

	_, err := runStageGuarded(sr, fault.SiteSim, nil,
		func(tr *pipetrace.Trace) { tr.Release() },
		func() (*pipetrace.Trace, error) {
			tr := pipetrace.GetTrace(16)
			time.Sleep(100 * time.Millisecond) // outlive the timeout
			return tr, nil
		})
	if _, ok := err.(*fault.TimeoutError); !ok {
		t.Fatalf("err = %v, want timeout", err)
	}
	waitPoolDrained(t, base)
}

// TestGuardedStageAcquireRelease: the acquire hook pins shared state for
// exactly the attempt's lifetime, on both the inline and the timed path.
func TestGuardedStageAcquireRelease(t *testing.T) {
	base := tracePoolLive()
	for _, timeout := range []time.Duration{0, time.Minute} {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
		ev.StageTimeout = timeout
		sr := &stageRunner{ev: ev, workload: "synthetic"}
		tr := pipetrace.GetTrace(16)
		v, err := runStageGuarded(sr, fault.SiteDEG,
			func() func() { tr.Retain(); return tr.Release },
			nil,
			func() (int, error) { return 7, nil })
		if err != nil || v != 7 {
			t.Fatalf("timeout %v: got (%d, %v)", timeout, v, err)
		}
		tr.Release() // the owner's reference; the attempt's is already gone
		waitPoolDrained(t, base)
	}
}
