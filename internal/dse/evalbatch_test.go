package dse

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// batchPoints draws n random points with one duplicate, the standard shape
// of an explorer-issued batch.
func batchPoints(seed int64, n int) []uarch.Point {
	rng := rand.New(rand.NewSource(seed))
	space := uarch.StandardSpace()
	pts := make([]uarch.Point, n)
	for i := range pts {
		pts[i] = space.Random(rng)
	}
	pts[n-1] = pts[1] // duplicate inside the batch
	return pts
}

// sameHistories asserts two evaluators produced byte-identical campaigns.
func sameHistories(t *testing.T, label string, a, b *Evaluator) {
	t.Helper()
	if a.Sims != b.Sims || len(a.History) != len(b.History) {
		t.Fatalf("%s: Sims %v vs %v, history lengths %d vs %d",
			label, a.Sims, b.Sims, len(a.History), len(b.History))
	}
	for i := range a.History {
		sameEvaluation(t, label, a.History[i], b.History[i])
	}
}

// TestBatchPathsParallelParity: on every path a batch can take — plain
// PPA without DEG, whole-trace DEG, windowed DEG (the fused deg_stream
// stage), a DEG upgrade of cached points, and probes — a Parallelism-4
// batch leaves the same history, budget and journaled span tree as the
// sequential one, its stage spans name exactly the stages that path runs,
// a duplicate point shares its evaluation, and every simulated trace
// returns to the pool.
func TestBatchPathsParallelParity(t *testing.T) {
	evaluate := func(withDEG bool) func(*Evaluator, []uarch.Point) ([]*Evaluation, error) {
		return func(ev *Evaluator, pts []uarch.Point) ([]*Evaluation, error) { return ev.EvaluateBatch(pts, withDEG) }
	}
	lite := []string{"trace", "sim", "power"}
	full := []string{"trace", "sim", "power", "deg"}
	cases := []struct {
		name   string
		window int
		run    func(*Evaluator, []uarch.Point) ([]*Evaluation, error)
		stages []string
	}{
		{"lite", 0, evaluate(false), lite},
		{"full", 0, evaluate(true), full},
		{"windowed", 400, evaluate(true), []string{"trace", "deg_stream", "power"}},
		{"upgrade", 0, func(ev *Evaluator, pts []uarch.Point) ([]*Evaluation, error) {
			if _, err := ev.EvaluateBatch(pts, false); err != nil {
				return nil, err
			}
			return ev.EvaluateBatch(pts, true) // re-simulates, charges nothing
		}, full},
		{"probe", 0, (*Evaluator).ProbeBatch, full},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := poolLive()
			pts := batchPoints(21, 6)
			run := func(parallelism int) (*Evaluator, []*Evaluation, []spanShape) {
				ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1000)
				ev.DEGWindow, ev.Parallelism = tc.window, parallelism
				rec := obs.New()
				var buf bytes.Buffer
				rec.SetJournalWriter(&buf)
				ev.Obs = rec
				evals, err := tc.run(ev, pts)
				if err != nil {
					t.Fatal(err)
				}
				if err := rec.Close(); err != nil {
					t.Fatal(err)
				}
				events, err := obs.ReadJournal(&buf)
				if err != nil {
					t.Fatal(err)
				}
				return ev, evals, spanShapes(events)
			}
			seq, _, seqSpans := run(1)
			par, evals, parSpans := run(4)
			sameHistories(t, tc.name, seq, par)
			if evals[len(evals)-1] != evals[1] {
				t.Fatal("duplicate point did not share its evaluation")
			}
			if !reflect.DeepEqual(seqSpans, parSpans) {
				t.Fatalf("span trees differ:\n  seq: %+v\n  par: %+v", seqSpans, parSpans)
			}
			stages, want := map[string]bool{}, map[string]bool{}
			for _, s := range seqSpans {
				if s.kind == obs.SpanStage {
					stages[s.name] = true
				}
			}
			for _, name := range tc.stages {
				want[name] = true
			}
			if !reflect.DeepEqual(stages, want) {
				t.Fatalf("journaled stage spans %v, want %v", stages, tc.stages)
			}
			checkPoolBalanced(t, base)
		})
	}
}

// TestBatchSimFaults: sim-site faults part-way through a batch behave as
// they do for one evaluation — transient failures retry to the clean
// history, a blanket permanent failure records and charges every design as
// failed at the sim site, and kills unwind the whole call with nothing
// committed, even in skip-failures mode — and no path strands a trace.
func TestBatchSimFaults(t *testing.T) {
	pts := batchPoints(26, 4)
	unique := len(pts) - 1
	clean := faultEvaluator(t, nil)
	if _, err := clean.EvaluateBatch(pts, true); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		inj   fault.Injection
		check func(t *testing.T, ev *Evaluator, evals []*Evaluation, err error)
	}{
		{"transient", fault.Injection{Site: fault.SiteSim, Nth: 3, Count: 2, Class: fault.Transient},
			func(t *testing.T, ev *Evaluator, _ []*Evaluation, err error) {
				if err != nil {
					t.Fatal(err)
				}
				sameHistories(t, "transient", clean, ev)
				if hits, want := ev.Faults.Hits(fault.SiteSim), unique*len(ev.Workloads)+2; hits != want {
					t.Fatalf("%d sim-site hits, want %d (every run plus two retries)", hits, want)
				}
			}},
		{"permanent", fault.Injection{Site: fault.SiteSim, Nth: 1, Count: 1 << 20, Class: fault.Permanent},
			func(t *testing.T, ev *Evaluator, evals []*Evaluation, err error) {
				if err != nil {
					t.Fatal(err)
				}
				if len(ev.History) != unique || ev.Sims != float64(unique*len(ev.Workloads)) {
					t.Fatalf("%d history, %v sims: want %d failed designs charged in full", len(ev.History), ev.Sims, unique)
				}
				for _, e := range evals {
					if !e.Failed || e.FailSite != fault.SiteSim {
						t.Fatalf("expected sim failure, got %+v", e)
					}
				}
			}},
		{"kill", fault.Injection{Site: fault.SiteSim, Nth: 1, Count: 1 << 20, Class: fault.Kill},
			func(t *testing.T, ev *Evaluator, _ []*Evaluation, err error) {
				if !fault.IsKill(err) {
					t.Fatalf("expected kill to surface, got %v", err)
				}
				if len(ev.History) != 0 || ev.Sims != 0 {
					t.Fatalf("killed batch leaked state: %d history, %.1f sims", len(ev.History), ev.Sims)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := poolLive()
			ev := faultEvaluator(t, fault.MustPlan(tc.inj))
			ev.SkipFailures = true
			evals, err := ev.EvaluateBatch(pts, true)
			tc.check(t, ev, evals, err)
			checkPoolBalanced(t, base)
		})
	}
}
