package dse

import (
	"bytes"
	"testing"

	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// litePoints picks a handful of diverse design points to compare plain
// (no-DEG) and DEG evaluations over.
func litePoints(space *uarch.Space) []uarch.Point {
	pts := []uarch.Point{space.Nearest(uarch.Baseline())}
	cfg := uarch.Baseline()
	cfg.ROBEntries = 64
	cfg.IQEntries = 16
	pts = append(pts, space.Nearest(cfg))
	cfg = uarch.Baseline()
	cfg.Width = 2
	cfg.IntALU = 2
	pts = append(pts, space.Nearest(cfg))
	return pts
}

// TestLiteEvaluationMatchesFull checks that a plain evaluation (no DEG
// analysis) reports the exact same IPC, PPA, and per-workload results as a
// DEG evaluation of the same points — the analysis may only add the
// report, never move the timing.
func TestLiteEvaluationMatchesFull(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		space := uarch.StandardSpace()
		pts := litePoints(space)

		liteEv := NewEvaluator(space, miniSuite(), 1500)
		liteEv.Parallelism = parallelism
		liteOut, err := liteEv.EvaluateBatch(pts, false)
		if err != nil {
			t.Fatal(err)
		}

		fullEv := NewEvaluator(space, miniSuite(), 1500)
		fullEv.Parallelism = parallelism
		fullOut, err := fullEv.EvaluateBatch(pts, true)
		if err != nil {
			t.Fatal(err)
		}

		for i := range pts {
			l, f := liteOut[i], fullOut[i]
			if l.PPA != f.PPA {
				t.Fatalf("parallelism %d, point %d: PPA diverges lite %+v full %+v",
					parallelism, i, l.PPA, f.PPA)
			}
			for k := range l.PerWorkloadIPC {
				if l.PerWorkloadIPC[k] != f.PerWorkloadIPC[k] {
					t.Fatalf("parallelism %d, point %d, workload %d: IPC diverges lite %v full %v",
						parallelism, i, k, l.PerWorkloadIPC[k], f.PerWorkloadIPC[k])
				}
			}
			if l.SimInsts != f.SimInsts {
				t.Fatalf("parallelism %d, point %d: SimInsts diverges lite %d full %d",
					parallelism, i, l.SimInsts, f.SimInsts)
			}
			if l.Report != nil {
				t.Fatalf("parallelism %d, point %d: lite evaluation carries a DEG report", parallelism, i)
			}
			if f.Report == nil {
				t.Fatalf("parallelism %d, point %d: full evaluation lost its DEG report", parallelism, i)
			}
		}
	}
}

// TestLiteJournalDeterministic runs the same plain (no-DEG) batch
// sequentially and fanned out, with journals attached, and requires the
// deterministic fields of the two journals to be identical — trace pooling
// must not leak scheduling order into the telemetry stream.
func TestLiteJournalDeterministic(t *testing.T) {
	run := func(parallelism int) ([]obs.Event, *Evaluator) {
		ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
		ev.Parallelism = parallelism
		rec := obs.New()
		var buf bytes.Buffer
		rec.SetJournalWriter(&buf)
		ev.Obs = rec
		if _, err := ev.EvaluateBatch(litePoints(ev.Space), false); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		events, err := obs.ReadJournal(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return events, ev
	}

	seqEvents, seqEv := run(1)
	parEvents, parEv := run(4)

	seq := deterministicTrace(t, seqEvents)
	par := deterministicTrace(t, parEvents)
	if len(seq) != len(par) {
		t.Fatalf("event counts differ: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("journal diverges at event %d:\n  seq: %+v\n  par: %+v", i, seq[i], par[i])
		}
	}
	for i := range seqEv.History {
		sameEvaluation(t, "lite history", seqEv.History[i], parEv.History[i])
		if seqEv.History[i].SimInsts != parEv.History[i].SimInsts {
			t.Fatalf("history %d: SimInsts differ across parallelism", i)
		}
	}
}
