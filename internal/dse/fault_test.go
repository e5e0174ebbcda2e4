package dse

import (
	"bytes"
	"testing"
	"time"

	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// noSleepRetry retries without backoff sleeps so fault tests stay fast.
var noSleepRetry = fault.Retry{Max: 3}

func faultEvaluator(t *testing.T, plan *fault.Plan) *Evaluator {
	t.Helper()
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.Parallelism = 1 // pin hit-count determinism
	ev.Faults = plan
	ev.Retry = noSleepRetry
	return ev
}

// TestTransientFaultsAreAbsorbed pins the core retry property: a run whose
// stages fail transiently (and get retried) produces byte-identical
// evaluations to a clean run.
func TestTransientFaultsAreAbsorbed(t *testing.T) {
	clean := faultEvaluator(t, nil)
	pt := clean.Space.Nearest(uarch.Baseline())
	want, err := clean.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []string{fault.SiteTrace, fault.SiteSim, fault.SitePower, fault.SiteDEG} {
		plan := fault.MustPlan(
			fault.Injection{Site: site, Nth: 1, Count: 2, Class: fault.Transient},
		)
		ev := faultEvaluator(t, plan)
		got, err := ev.Evaluate(pt, true)
		if err != nil {
			t.Fatalf("site %s: transient fault surfaced despite retries: %v", site, err)
		}
		sameEvaluation(t, "transient@"+site, want, got)
		if plan.Hits(site) < 3 {
			t.Fatalf("site %s: expected at least 3 hits (2 failures + success), got %d", site, plan.Hits(site))
		}
	}
}

// TestTransientFaultRetriesExhausted pins the giving-up path: with no retry
// budget a transient failure surfaces like any other error.
func TestTransientFaultRetriesExhausted(t *testing.T) {
	ev := faultEvaluator(t, fault.MustPlan(
		fault.Injection{Site: fault.SiteSim, Nth: 1, Count: 100, Class: fault.Transient},
	))
	ev.Retry = fault.Retry{} // zero value: no retries
	pt := ev.Space.Nearest(uarch.Baseline())
	if _, err := ev.Evaluate(pt, false); err == nil {
		t.Fatal("exhausted transient fault did not surface")
	}
	if len(ev.History) != 0 || ev.Sims != 0 {
		t.Fatalf("aborted evaluation leaked state: %d history, %.1f sims", len(ev.History), ev.Sims)
	}
}

// TestPermanentFaultAbortsByDefault: without SkipFailures a permanent
// failure unwinds the evaluation and charges nothing.
func TestPermanentFaultAbortsByDefault(t *testing.T) {
	ev := faultEvaluator(t, fault.MustPlan(
		fault.Injection{Site: fault.SitePower, Nth: 1, Class: fault.Permanent},
	))
	pt := ev.Space.Nearest(uarch.Baseline())
	if _, err := ev.Evaluate(pt, false); err == nil {
		t.Fatal("permanent fault did not surface")
	}
	if len(ev.History) != 0 || ev.Sims != 0 {
		t.Fatalf("aborted evaluation leaked state: %d history, %.1f sims", len(ev.History), ev.Sims)
	}
}

// TestPermanentFaultDegradesToSkip: in skip-failures mode the failed design
// enters History marked Failed, charged its full suite cost, is sticky in
// the cache, and never joins Pareto reductions.
func TestPermanentFaultDegradesToSkip(t *testing.T) {
	ev := faultEvaluator(t, fault.MustPlan(
		fault.Injection{Site: fault.SiteSim, Nth: 1, Class: fault.Permanent},
	))
	ev.SkipFailures = true
	pt := ev.Space.Nearest(uarch.Baseline())

	e, err := ev.Evaluate(pt, false)
	if err != nil {
		t.Fatalf("skip-failures mode surfaced the failure: %v", err)
	}
	if !e.Failed || e.FailSite != fault.SiteSim || e.FailReason == "" {
		t.Fatalf("failure not recorded: %+v", e)
	}
	if e.Tradeoff() != 0 {
		t.Fatalf("failed evaluation trades off at %v, want 0", e.Tradeoff())
	}
	wantCharge := float64(len(ev.Workloads))
	if ev.Sims != wantCharge {
		t.Fatalf("failed evaluation charged %.1f sims, want %.1f", ev.Sims, wantCharge)
	}
	if len(ev.History) != 1 || !ev.History[0].Failed {
		t.Fatalf("failed evaluation missing from history: %+v", ev.History)
	}
	if pts := ev.Points(); len(pts) != 0 {
		t.Fatalf("failed evaluation leaked into Points: %v", pts)
	}
	if pts := ev.PointsUpTo(1e18); len(pts) != 0 {
		t.Fatalf("failed evaluation leaked into PointsUpTo: %v", pts)
	}

	// Sticky: a repeat request — even one asking for a DEG report — serves
	// the failed entry from cache without re-simulating or re-charging.
	e2, err := ev.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}
	if e2 != e {
		t.Fatal("failed entry not served from cache")
	}
	if ev.Sims != wantCharge || len(ev.History) != 1 {
		t.Fatalf("cache hit on failed entry re-charged: %.1f sims, %d history", ev.Sims, len(ev.History))
	}
}

// TestKillAlwaysAborts: a kill-class fault unwinds the batch even in
// skip-failures mode — it models the process dying, not a bad design.
func TestKillAlwaysAborts(t *testing.T) {
	ev := faultEvaluator(t, fault.MustPlan(
		fault.Injection{Site: fault.SiteSim, Nth: 1, Class: fault.Kill},
	))
	ev.SkipFailures = true
	pt := ev.Space.Nearest(uarch.Baseline())
	_, err := ev.Evaluate(pt, false)
	if !fault.IsKill(err) {
		t.Fatalf("kill fault surfaced as %v", err)
	}
	if len(ev.History) != 0 || ev.Sims != 0 {
		t.Fatalf("killed batch leaked state: %d history, %.1f sims", len(ev.History), ev.Sims)
	}
}

// TestStageTimeoutRetries: a hung stage attempt is cancelled at the
// StageTimeout, at its next cancellation point (here the injected stall),
// and retried as a transient failure; the retry succeeds and the result
// matches a clean run.
func TestStageTimeoutRetries(t *testing.T) {
	clean := faultEvaluator(t, nil)
	pt := clean.Space.Nearest(uarch.Baseline())
	want, err := clean.Evaluate(pt, false)
	if err != nil {
		t.Fatal(err)
	}

	// The injected fault stalls 200ms before firing; the 20ms stage timeout
	// cancels the stall long before that, converting it to a timeout.
	plan := fault.MustPlan(fault.Injection{
		Site: fault.SitePower, Nth: 1, Class: fault.Transient, Delay: 200 * time.Millisecond,
	})
	ev := faultEvaluator(t, plan)
	ev.StageTimeout = 20 * time.Millisecond

	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec

	got, err := ev.Evaluate(pt, false)
	if err != nil {
		t.Fatalf("timed-out stage did not recover: %v", err)
	}
	sameEvaluation(t, "timeout", want, got)
	if n := rec.Counter(obs.MetricTimeouts).Value(); n < 1 {
		t.Fatalf("timeout counter %d, want >= 1", n)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sawTimeoutRetry := false
	for _, e := range events {
		if f, ok := e.(*obs.FaultEvent); ok && f.Action == "retry" && f.Class == "timeout" {
			sawTimeoutRetry = true
		}
	}
	if !sawTimeoutRetry {
		t.Fatal("no timeout retry event in journal")
	}
}

// TestFaultJournal pins the journal shape of a retried-then-skipped run:
// retry events precede the skip event, all from the commit phase, and the
// skip carries the failure's site and reason.
func TestFaultJournal(t *testing.T) {
	ev := faultEvaluator(t, fault.MustPlan(
		fault.Injection{Site: fault.SiteSim, Nth: 1, Class: fault.Transient},
		fault.Injection{Site: fault.SiteDEG, Nth: 1, Count: 100, Class: fault.Permanent},
	))
	ev.SkipFailures = true
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec

	pt := ev.Space.Nearest(uarch.Baseline())
	e, err := ev.Evaluate(pt, true)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Failed || e.FailSite != fault.SiteDEG {
		t.Fatalf("expected DEG failure, got %+v", e)
	}

	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var retryIdx, skipIdx = -1, -1
	for i, ev := range events {
		f, ok := ev.(*obs.FaultEvent)
		if !ok {
			continue
		}
		switch f.Action {
		case "retry":
			if retryIdx < 0 {
				retryIdx = i
			}
			if f.Site != fault.SiteSim || f.Attempt < 1 || f.Workload == "" {
				t.Fatalf("malformed retry event: %+v", f)
			}
		case "skip":
			skipIdx = i
			if f.Site != fault.SiteDEG || f.Class != "permanent" || f.Err == "" {
				t.Fatalf("malformed skip event: %+v", f)
			}
			if len(f.Point) != uarch.NumParams {
				t.Fatalf("skip event missing point: %+v", f)
			}
		}
	}
	if retryIdx < 0 || skipIdx < 0 || retryIdx > skipIdx {
		t.Fatalf("journal order wrong: retry at %d, skip at %d", retryIdx, skipIdx)
	}
	if n := rec.Counter(obs.MetricRetries).Value(); n < 1 {
		t.Fatalf("retry counter %d, want >= 1", n)
	}
	if n := rec.Counter(obs.MetricEvalSkips).Value(); n != 1 {
		t.Fatalf("skip counter %d, want 1", n)
	}
}

// TestExplorersSurviveSkippedFailures: each explorer completes a small
// campaign despite permanently failed evaluations sprinkled through it.
func TestExplorersSurviveSkippedFailures(t *testing.T) {
	for _, mk := range []func() Explorer{
		func() Explorer { return NewArchExplorer(1) },
		func() Explorer { return &RandomSearch{Seed: 1} },
	} {
		ex := mk()
		ev := faultEvaluator(t, fault.MustPlan(
			fault.Injection{Site: fault.SiteSim, Nth: 3, Count: 4, Class: fault.Permanent},
			fault.Injection{Site: fault.SiteSim, Nth: 19, Class: fault.Permanent},
		))
		ev.SkipFailures = true
		if err := ex.Run(ev, 10); err != nil {
			t.Fatalf("%s aborted on skipped failures: %v", ex.Name(), err)
		}
		failed := 0
		for _, e := range ev.History {
			if e.Failed {
				failed++
			}
		}
		if failed == 0 {
			t.Fatalf("%s: no failures recorded — injection never fired", ex.Name())
		}
		if ev.Sims < 10 {
			t.Fatalf("%s: budget not spent: %.1f", ex.Name(), ev.Sims)
		}
	}
}
