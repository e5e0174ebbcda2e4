// Package exp is the experiment harness: one registered runner per table
// and figure of the paper's evaluation, each of which regenerates the
// corresponding rows/series from this repo's simulator and models. The
// cmd/experiments binary and the repository-root benchmarks are thin
// wrappers around this registry.
package exp

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"archexplorer/internal/dse"
	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/ooo"
	"archexplorer/internal/par"
	"archexplorer/internal/persist"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// Options scales experiments between quick smoke runs and full
// reproductions.
type Options struct {
	// TraceLen is the instruction count of each full workload evaluation.
	TraceLen int
	// Budget is the simulation budget for DSE experiments (in full
	// (config, workload) simulations).
	Budget int
	// Seeds is how many seeds DSE comparisons average over.
	Seeds int
	// Samples is the design count for sampling experiments (Figure 1).
	Samples int
	// Parallelism bounds each evaluator's concurrent (config, workload)
	// simulations: 0 (the default) shares one GOMAXPROCS-sized pool across
	// every concurrently running evaluation, 1 forces fully sequential
	// simulation. Results are identical at any setting; only wall-clock
	// changes.
	Parallelism int
	// Obs, when non-nil, receives telemetry from every evaluator the
	// harness builds plus grid-progress events as campaign cells finish.
	// Results are identical with or without it. Note that a grid fans
	// multiple evaluators out concurrently, so a shared journal interleaves
	// their (individually deterministic) event streams.
	Obs *obs.Recorder
	// SpanParent, when nonzero, is the campaign span id grid-cell spans
	// parent to (see obs.Recorder.CampaignSpan), so the self-DEG analysis
	// sees one tree per run rather than a forest of cells.
	SpanParent int64
	// Progress, when non-nil, receives a one-line note as each campaign
	// grid cell completes (live visibility into multi-minute fan-outs).
	Progress io.Writer
	// Fast shrinks everything for smoke tests and benchmarks.
	Fast bool

	// CheckpointDir, when set, gives every campaign grid cell its own
	// crash-safe snapshot file <dir>/<cell>-s<seed>.json; with Resume set a
	// re-run replays whatever those snapshots already hold, so a killed
	// multi-hour fan-out picks up where it died.
	CheckpointDir string
	// CheckpointEvery throttles per-cell snapshots (0 = every batch).
	CheckpointEvery time.Duration
	// Resume restores each cell from its snapshot when one exists.
	Resume bool

	// DEGWindow switches every evaluator the harness builds to windowed
	// bottleneck analysis (see dse.Evaluator); 0 keeps the whole-trace
	// analyzer.
	DEGWindow int

	// Retry, StageTimeout, and SkipFailures are the evaluator resilience
	// policy applied to every evaluator the harness builds (see dse).
	Retry        fault.Retry
	StageTimeout time.Duration
	SkipFailures bool
	// Faults is the injectable failure plan, for the fault-tolerance tests.
	Faults *fault.Plan
}

// Defaults fills unset fields.
func (o Options) Defaults() Options {
	if o.TraceLen == 0 {
		o.TraceLen = 4000
	}
	if o.Budget == 0 {
		o.Budget = 720
	}
	if o.Seeds == 0 {
		o.Seeds = 2
	}
	if o.Samples == 0 {
		o.Samples = 120
	}
	if o.Fast {
		o.TraceLen = 2000
		if o.Budget > 180 {
			o.Budget = 180
		}
		o.Seeds = 1
		if o.Samples > 40 {
			o.Samples = 40
		}
	}
	return o
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	Name  string
	Paper string // which table/figure of the paper it regenerates
	Desc  string
	Run   func(o Options, w io.Writer) error
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.Name]; dup {
		panic("exp: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
}

// Get returns a registered experiment.
func Get(name string) (Experiment, error) {
	e, ok := registry[name]
	if !ok {
		return Experiment{}, fmt.Errorf("exp: unknown experiment %q (use List)", name)
	}
	return e, nil
}

// List returns all experiments sorted by name.
func List() []Experiment {
	var out []Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// newEvaluator builds a standard-space evaluator wired with the options'
// parallelism and telemetry recorder, so every experiment's evaluations
// share the same fan-out policy and observability sink.
func newEvaluator(o Options, suite []workload.Profile) *dse.Evaluator {
	ev := dse.NewEvaluator(uarch.StandardSpace(), suite, o.TraceLen)
	ev.Parallelism = o.Parallelism
	ev.Obs = o.Obs
	ev.Faults = o.Faults
	ev.Retry = o.Retry
	ev.StageTimeout = o.StageTimeout
	ev.SkipFailures = o.SkipFailures
	ev.DEGWindow = o.DEGWindow
	return ev
}

// cellCheckpoint wires checkpoint/resume onto one grid cell's evaluator,
// naming the snapshot after the cell and seed so independent cells never
// clobber each other. A no-op without a CheckpointDir.
func cellCheckpoint(o Options, ev *dse.Evaluator, cell string, seed int64) error {
	if o.CheckpointDir == "" {
		return nil
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, cell)
	return persist.AttachCheckpoint(ev, persist.CheckpointOptions{
		Path:   filepath.Join(o.CheckpointDir, fmt.Sprintf("%s-s%d.json", slug, seed)),
		Every:  o.CheckpointEvery,
		Resume: o.Resume,
		Method: cell, Budget: o.Budget, Seed: seed,
		Faults: o.Faults, Retry: o.Retry, Obs: o.Obs,
	})
}

// exploreGrid runs a variants × seeds grid of independent explorations
// concurrently and collects the evaluators into [variant][seed-1] slots.
// The grid goroutines only coordinate — the simulations inside each
// exploration are what occupy the shared compute pool — so the grid itself
// is unbounded. Slot collection keeps downstream reductions (curve
// averaging, table rows) in the same deterministic order as the nested
// sequential loops this replaces; errors surface lowest-index first. As
// cells finish, a progress line goes to o.Progress and a grid event to the
// recorder (in completion order — progress is live telemetry, not part of
// the deterministic accounting stream).
// Each cell also gets its own campaign-kind span ("cell-v<variant>-s<seed>"),
// opened and emitted from the cell's goroutine — like GridProgress, cell
// spans land in the journal in completion order, while the span tree inside
// each cell stays deterministic.
func exploreGrid(o Options, variants, seeds int, run func(variant int, seed int64, cellSpan int64) (*dse.Evaluator, error)) ([][]*dse.Evaluator, error) {
	out := make([][]*dse.Evaluator, variants)
	for v := range out {
		out[v] = make([]*dse.Evaluator, seeds)
	}
	n := variants * seeds
	var done atomic.Int64
	start := time.Now()
	err := par.ForEach(n, n, func(i int) error {
		v, s := i/seeds, i%seeds
		var cellSpan, cellStart int64
		if o.Obs.JournalEnabled() {
			cellSpan = o.Obs.NextSpan()
			cellStart = o.Obs.Clock()
		}
		if o.Obs.SpansActive() {
			defer o.Obs.TrackSpan(obs.SpanCampaign, fmt.Sprintf("cell-v%d-s%d", v, s+1), "", 0)()
		}
		ev, err := run(v, int64(s+1), cellSpan)
		if err != nil {
			return err
		}
		if cellSpan != 0 {
			o.Obs.Emit(&obs.SpanEvent{
				Span: cellSpan, Parent: o.SpanParent, SpanKind: obs.SpanCampaign,
				Name:    fmt.Sprintf("cell-v%d-s%d", v, s+1),
				StartNS: cellStart, DurNS: o.Obs.Clock() - cellStart,
			})
		}
		out[v][s] = ev
		k := done.Add(1)
		o.Obs.Counter(obs.MetricCampaignsDone).Inc()
		o.Obs.Emit(&obs.GridProgress{
			Variant: v, Seed: int64(s + 1), Done: int(k), Total: n, Sims: ev.Sims,
		})
		if o.Progress != nil {
			fmt.Fprintf(o.Progress, "  progress: campaign %d/%d done (variant %d, seed %d, %.1f sims, %v elapsed)\n",
				k, n, v, s+1, ev.Sims, time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// simulate runs one config on one workload and returns its trace.
func simulate(cfg uarch.Config, wl workload.Profile, n int) (*pipetrace.Trace, error) {
	stream, err := workload.CachedTrace(wl, n)
	if err != nil {
		return nil, err
	}
	core, err := ooo.New(cfg)
	if err != nil {
		return nil, err
	}
	defer core.Release()
	tr, _, err := core.Run(stream)
	return tr, err
}

// simulateStats runs one config on one workload and returns only the
// stats: the stats-only run, which builds no trace.
func simulateStats(cfg uarch.Config, wl workload.Profile, n int) (*ooo.Stats, error) {
	stream, err := workload.CachedTrace(wl, n)
	if err != nil {
		return nil, err
	}
	core, err := ooo.New(cfg)
	if err != nil {
		return nil, err
	}
	defer core.Release()
	return core.RunStats(context.TODO(), stream)
}

// suiteByName maps "SPEC06"/"SPEC17" to workload profiles.
func suiteByName(name string) ([]workload.Profile, error) {
	switch name {
	case "SPEC06":
		return workload.Suite06(), nil
	case "SPEC17":
		return workload.Suite17(), nil
	default:
		return nil, fmt.Errorf("exp: unknown suite %q", name)
	}
}

// lookup finds a workload profile by name.
func lookup(name string) (workload.Profile, error) {
	return workload.ByName(name)
}
