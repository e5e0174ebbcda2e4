package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"archexplorer/internal/dse"
	"archexplorer/internal/obs"
	"archexplorer/internal/pareto"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// targetHV is the EXPERIMENTS.md Table 5 convergence target on the SPEC06
// suite; sims_to_target is the budget at which a campaign first reaches it.
const targetHV = 7.184

// spec is one benchmark workload: an evaluator shape and the client that
// drives it. The client is closed-loop — it waits for every batch before
// drawing the next — and the evaluator keeps its default parallelism
// (GOMAXPROCS compute slots, GOMAXPROCS DEG workers).
type spec struct {
	name     string
	suite    func() []workload.Profile
	suiteID  string
	method   string // explorer name recorded by persist
	budget   int    // simulation budget; 0 for a single batch
	traceLen int
	probes   bool // the client issues probe evaluations

	// degWindow and degStream select the windowed, fused sim→DEG pipeline.
	degWindow int
	degStream bool

	// drive runs the client against a fresh evaluator.
	drive func(s *spec, ev *dse.Evaluator, seed int64) error
}

var specs = []spec{
	{
		// The paper's headline campaign, identical to `archexplorer -seed S`:
		// short whole-trace DEG probes plus full-fidelity re-evaluations.
		name: "explore", suite: workload.Suite06, suiteID: "SPEC06", method: "ArchExplorer",
		budget: 720, traceLen: 4000, probes: true,
		drive: func(s *spec, ev *dse.Evaluator, seed int64) error {
			return dse.NewArchExplorer(seed).Run(ev, s.budget)
		},
	},
	{
		// Same suite and budget, full RunLite evaluations and a GP fit, no
		// DEG work: a deg change must not move it, an ooo change shows
		// almost undiluted.
		name: "search-lite", suite: workload.Suite06, suiteID: "SPEC06", method: "BOOM-Explorer",
		budget: 720, traceLen: 16000,
		drive: func(s *spec, ev *dse.Evaluator, seed int64) error {
			return dse.NewBOOMExplorer(seed).Run(ev, s.budget)
		},
	},
	{
		// Long traces through the windowed, streamed, parallel-window DEG
		// pipeline on the suite explore never uses.
		name: "analyze-stream", suite: workload.Suite17, suiteID: "SPEC17", method: "EvaluateBatch",
		traceLen: 50000, degWindow: 2000, degStream: true,
		drive: func(s *spec, ev *dse.Evaluator, seed int64) error {
			pts := []uarch.Point{
				ev.Space.Nearest(uarch.Baseline()),
				ev.Space.Random(rand.New(rand.NewSource(seed))),
			}
			_, err := ev.EvaluateBatch(pts, true)
			return err
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// probeLen is the per-workload trace length of a probe evaluation: the
// evaluator's Section 5.1 prefix, TraceLen/ProbeDiv with a 250-instruction
// floor.
func probeLen(ev *dse.Evaluator) int {
	return max(ev.TraceLen/ev.ProbeDiv, 250)
}

// newEvaluator builds the fresh evaluator every rep starts from.
func (s *spec) newEvaluator() *dse.Evaluator {
	ev := dse.NewEvaluator(uarch.StandardSpace(), s.suite(), s.traceLen)
	ev.DEGWindow = s.degWindow
	ev.DEGStream = s.degStream
	return ev
}

// traceLens lists every trace length the workload's evaluations request.
func (s *spec) traceLens() []int {
	lens := []int{s.traceLen}
	if s.probes {
		lens = append(lens, probeLen(s.newEvaluator()))
	}
	return lens
}

// setup measures what every fresh process pays before its first
// evaluation: generating the suite's traces at every length the workload
// uses, uncached, sequentially. It returns the median of passes at the
// reference host speed, then fills the process-wide trace cache so no
// timed rep pays for generation.
func (s *spec) setup(k *kernel, passes int) (time.Duration, error) {
	suite, lens := s.suite(), s.traceLens()
	var ds []time.Duration
	var err error
	_, kt := k.bracket(func() {
		for p := 0; p < passes && err == nil; p++ {
			runtime.GC()
			start := time.Now()
			for _, n := range lens {
				for _, wl := range suite {
					if _, err = workload.Trace(wl, n); err != nil {
						return
					}
				}
			}
			ds = append(ds, time.Since(start))
		}
	})
	if err != nil {
		return 0, err
	}
	for _, n := range lens {
		if err := workload.Prewarm(suite, n, 0); err != nil {
			return 0, err
		}
	}
	return atRef(median(ds), kt), nil
}

// rep is one campaign run on a fresh evaluator.
type rep struct {
	ev *dse.Evaluator
	// wall is the campaign's host wall-clock; kernel is the calibration
	// kernel's time around it.
	wall, kernel time.Duration
	simInsts     int64
	sig          signature
}

// refWall is the campaign's wall-clock at the reference host speed.
func (r *rep) refWall() time.Duration { return atRef(r.wall, r.kernel) }

// runRep runs one campaign, bracketed by the calibration kernel. With rec
// non-nil the evaluator journals spans under a campaign span, exactly as
// `archexplorer -journal` does.
func (s *spec) runRep(k *kernel, seed int64, rec *obs.Recorder) (*rep, error) {
	runtime.GC()
	var ev *dse.Evaluator
	var err error
	wall, kt := k.bracket(func() {
		ev = s.newEvaluator()
		endCampaign := func() {}
		if rec != nil {
			ev.Obs = rec
			ev.SpanParent, endCampaign = rec.CampaignSpan("archbench/" + s.name)
		}
		err = s.drive(s, ev, seed)
		endCampaign()
	})
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", s.name, seed, err)
	}
	r := &rep{ev: ev, wall: wall, kernel: kt, sig: s.sign(ev)}
	for _, e := range ev.History {
		r.simInsts += e.SimInsts
	}
	return r, nil
}

// hvBudget is the budget the final hypervolume is read at: the campaign
// budget, or everything a single-batch workload spent.
func (s *spec) hvBudget(ev *dse.Evaluator) float64 {
	if s.budget > 0 {
		return float64(s.budget)
	}
	return ev.Sims
}

// signature is the deterministic, simulated outcome of one campaign. Every
// rep of a run must produce the same one, and for pinned seeds it must
// equal the pin.
type signature struct {
	HV          float64 `json:"hv"`
	Sims        float64 `json:"sims"`
	History     int     `json:"history"`
	Fingerprint string  `json:"fingerprint"`
	// Failed and Drops are not pinned: any nonzero value fails the run.
	Failed int   `json:"-"`
	Drops  int64 `json:"-"`
}

func (s *spec) sign(ev *dse.Evaluator) signature {
	sig := signature{
		HV:      pareto.Hypervolume(ev.PointsUpTo(s.hvBudget(ev)), pareto.StandardReference),
		Sims:    ev.Sims,
		History: len(ev.History),
	}
	// The fingerprint covers every field of the history the explorer can
	// observe; %v prints floats in their shortest exact form.
	h := fnv.New64a()
	for _, e := range ev.History {
		fmt.Fprintln(h, e.Point, e.Probe, e.Failed, e.SimsAt, e.PPA.Perf, e.PPA.Power, e.PPA.Area, e.PerWorkloadIPC)
		if r := e.Report; r != nil {
			fmt.Fprintln(h, r.L, r.Contrib, r.DelayByRes, r.Base, r.BaseClamped, r.EdgeCount)
		}
		if e.Failed {
			sig.Failed++
		}
		sig.Drops += e.DEGDrops
	}
	sig.Fingerprint = fmt.Sprintf("%016x", h.Sum64())
	return sig
}

// simsToTarget returns the cumulative simulation count at which the
// campaign's hypervolume first reaches targetHV, or -1 if it never does.
func simsToTarget(ev *dse.Evaluator) float64 {
	for _, e := range ev.History {
		if pareto.Hypervolume(ev.PointsUpTo(e.SimsAt), pareto.StandardReference) >= targetHV {
			return e.SimsAt
		}
	}
	return -1
}

// pins maps workload name → seed → the signature that seed must produce.
type pins map[string]map[string]signature

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// check verifies the reps agree with one another and, for a pinned seed,
// with the pin. It returns every violation found.
func (p pins) check(name string, seed int64, reps []*rep) []string {
	var bad []string
	first := reps[0].sig
	for i, r := range reps[1:] {
		if r.sig != first {
			bad = append(bad, fmt.Sprintf("rep %d outcome %+v differs from rep 0 %+v", i+1, r.sig, first))
		}
	}
	if first.Failed > 0 {
		bad = append(bad, fmt.Sprintf("%d failed evaluations", first.Failed))
	}
	if first.Drops > 0 {
		bad = append(bad, fmt.Sprintf("deg.dropped = %d, want 0", first.Drops))
	}
	if want, ok := p[name][fmt.Sprint(seed)]; ok {
		got := first
		got.Failed, got.Drops = 0, 0
		if got != want {
			bad = append(bad, fmt.Sprintf("seed %d outcome %+v, pinned %+v", seed, got, want))
		}
	}
	return bad
}

func median[T ~int64 | ~float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
