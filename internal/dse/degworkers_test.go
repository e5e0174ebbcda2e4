package dse

import (
	"bytes"
	"reflect"
	"regexp"
	"runtime"
	"testing"

	"archexplorer/internal/obs"
	"archexplorer/internal/uarch"
)

// evalWithWorkers runs one fully journaled windowed evaluation at the
// given GOMAXPROCS — the evaluator's DEG worker count — and returns the
// evaluation plus the raw journal bytes.
func evalWithWorkers(t *testing.T, workers int) (*Evaluation, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 2000)
	ev.DEGWindow = 400
	rec := obs.New()
	var buf bytes.Buffer
	rec.SetJournalWriter(&buf)
	ev.Obs = rec
	e, err := ev.Evaluate(ev.Space.Nearest(uarch.Baseline()), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return e, buf.Bytes()
}

// nsFields matches every wall-clock-valued journal field (they all end in
// _ns), the RFC3339 "time" stamps, and the span "worker" slot (which
// worker ran a stage depends on scheduling) — the only nondeterministic
// bytes a journal may contain.
var nsFields = regexp.MustCompile(`"[a-z_]+_ns":-?\d+|"time":"[^"]*"|"worker":\d+`)

func scrubTimings(raw []byte) []byte {
	return nsFields.ReplaceAll(raw, []byte(`"t":0`))
}

// TestEvaluatorDEGWorkersDeterminism pins the parallel windowed
// analysis's end-to-end guarantee at the evaluator level: GOMAXPROCS 1
// (sequential windows) and 4 (a four-window ring in the fused stage)
// change neither any deterministic evaluation field nor a single journal
// byte (once wall-clock timings and worker slots, the only legitimately
// nondeterministic fields, are scrubbed). Telemetry may gauge the worker
// count, but the journal event stream must be invariant.
func TestEvaluatorDEGWorkersDeterminism(t *testing.T) {
	// Windowed full evaluations always stream, so the fused stage is the
	// one path with parallel windows.
	t.Run("streamed", func(t *testing.T) {
		seqE, seqRaw := evalWithWorkers(t, 1)
		parE, parRaw := evalWithWorkers(t, 4)

		if seqE.PPA != parE.PPA {
			t.Fatalf("workers changed PPA: %+v vs %+v", seqE.PPA, parE.PPA)
		}
		if !reflect.DeepEqual(seqE.Report, parE.Report) {
			t.Fatalf("workers changed the bottleneck report:\nseq %+v\npar %+v", seqE.Report, parE.Report)
		}
		if !reflect.DeepEqual(seqE.PerWorkloadIPC, parE.PerWorkloadIPC) {
			t.Fatalf("workers changed per-workload IPC: %v vs %v", seqE.PerWorkloadIPC, parE.PerWorkloadIPC)
		}
		if seqE.DEGWindows != parE.DEGWindows || seqE.DEGPeakEdges != parE.DEGPeakEdges || seqE.DEGDrops != parE.DEGDrops {
			t.Fatalf("workers changed window stats: seq{%d %d %d} par{%d %d %d}",
				seqE.DEGWindows, seqE.DEGPeakEdges, seqE.DEGDrops,
				parE.DEGWindows, parE.DEGPeakEdges, parE.DEGDrops)
		}

		seqJ, parJ := scrubTimings(seqRaw), scrubTimings(parRaw)
		if len(seqJ) == 0 {
			t.Fatal("empty journal")
		}
		if !bytes.Equal(seqJ, parJ) {
			// Find the first diverging line for a readable failure.
			sl, pl := bytes.Split(seqJ, []byte("\n")), bytes.Split(parJ, []byte("\n"))
			for i := 0; i < len(sl) && i < len(pl); i++ {
				if !bytes.Equal(sl[i], pl[i]) {
					t.Fatalf("journal bytes differ at line %d:\nseq %s\npar %s", i+1, sl[i], pl[i])
				}
			}
			t.Fatalf("journal lengths differ: %d vs %d lines", len(sl), len(pl))
		}
	})
}

// TestDEGWorkersGauge: archx_deg_workers gauges the fused stage's window
// ring, GOMAXPROCS wide, so only evaluations that ran that stage set it. A
// windowed probe analyzes its windows sequentially and leaves it at 0.
func TestDEGWorkersGauge(t *testing.T) {
	ev := NewEvaluator(uarch.StandardSpace(), miniSuite(), 1500)
	ev.DEGWindow = 100 // a probe simulates 250 instructions: 3 windows
	ev.Obs = obs.New()
	gauge := ev.Obs.Gauge(obs.MetricDEGWorkers)
	pt := ev.Space.Nearest(uarch.Baseline())
	if _, err := ev.ProbeBatch([]uarch.Point{pt}); err != nil {
		t.Fatal(err)
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("windowed probe set the DEG workers gauge to %v, want 0", got)
	}
	if _, err := ev.Evaluate(pt, true); err != nil {
		t.Fatal(err)
	}
	if got, want := gauge.Value(), float64(runtime.GOMAXPROCS(0)); got != want {
		t.Fatalf("windowed evaluation set the DEG workers gauge to %v, want GOMAXPROCS %v", got, want)
	}
}
