// Package dse implements the design-space exploration loop of the paper:
// the PPA evaluator (simulator + power/area model, with simulation-budget
// accounting), the ArchExplorer bottleneck-removal-driven explorer, and the
// three machine-learning baselines it is compared against (ArchRanker,
// AdaBoost.RT, BOOM-Explorer) plus random search.
package dse

import (
	"context"
	"fmt"
	"sync"
	"time"

	"archexplorer/internal/calipers"
	"archexplorer/internal/deg"
	"archexplorer/internal/fault"
	"archexplorer/internal/isa"
	"archexplorer/internal/mcpat"
	"archexplorer/internal/obs"
	"archexplorer/internal/ooo"
	"archexplorer/internal/par"
	"archexplorer/internal/pareto"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// StageTimes is the wall-clock spent per evaluation stage, summed across
// the workloads of one evaluation. Under parallel evaluation the per-stage
// sums exceed the evaluation's elapsed wall-clock: they count every
// worker's time, which is exactly what makes fan-out speedups observable
// (stage totals stay flat while Elapsed shrinks).
type StageTimes struct {
	Trace time.Duration // trace generation / cache lookup
	Sim   time.Duration // cycle-level out-of-order simulation
	Power time.Duration // McPAT power/area model
	DEG   time.Duration // graph build + critical path + attribution
	// DEGStream is the fused simulate+analyze stage that every windowed
	// full evaluation runs (Evaluator.DEGWindow > 0); it replaces Sim and
	// DEG, which stay zero there.
	DEGStream time.Duration
}

// Total is the summed worker time across all stages.
func (s StageTimes) Total() time.Duration {
	return s.Trace + s.Sim + s.Power + s.DEG + s.DEGStream
}

func (s *StageTimes) add(o StageTimes) {
	s.Trace += o.Trace
	s.Sim += o.Sim
	s.Power += o.Power
	s.DEG += o.DEG
	s.DEGStream += o.DEGStream
}

// Evaluation is the outcome of evaluating one design point on the full
// workload suite.
type Evaluation struct {
	Point  uarch.Point
	Config uarch.Config
	PPA    pareto.Point // Perf = mean IPC, Power = mean watts, Area = mm²

	// Report is the Equation-2 merged bottleneck report; populated only
	// when the evaluation was requested with DEG analysis.
	Report *deg.Report

	// Probe marks a short-prefix evaluation (Section 5.1's 100k-of-a-
	// Simpoint bottleneck probe) whose PPA is approximate.
	Probe bool

	// SimsAt is the evaluator's cumulative simulation count when this
	// evaluation completed (the x-coordinate on budget curves). It is
	// assigned at collection time, in request order, so it is identical
	// whether the evaluation ran sequentially or fanned out.
	SimsAt float64

	// PerWorkloadIPC records each workload's IPC (paper Fig. 13 uses
	// averages; ablations use the distribution).
	PerWorkloadIPC []float64

	// Times breaks the evaluation's worker time down by stage; Elapsed is
	// its end-to-end wall-clock. Both vary run to run — every other field
	// is deterministic.
	Times   StageTimes
	Elapsed time.Duration

	// SimInsts is the total number of instructions the simulator committed
	// across the suite for this evaluation (the numerator of simulator
	// throughput; zero for replayed or failed evaluations).
	SimInsts int64

	// DEGWindows and DEGPeakEdges summarize windowed bottleneck analysis
	// across the suite, run by the fused stage (full evaluations) or the
	// deg stage (probes): total windows analyzed and the largest
	// single-window graph. Both stay zero on whole-trace runs (DEGWindow
	// 0). DEGDrops counts defensively dropped DEG edges in every mode —
	// nonzero means the simulator emitted a corrupt trace.
	DEGWindows   int
	DEGPeakEdges int
	DEGDrops     int64

	// Failed marks an evaluation that failed permanently and was degraded
	// to a journaled skip (SkipFailures mode, or a failure replayed from a
	// checkpoint). Its PPA is zero and it never joins Pareto reductions,
	// but it occupies its History slot and its budget charge so that a
	// resumed campaign replays failures exactly where they happened.
	Failed     bool
	FailSite   string
	FailReason string
}

// Tradeoff is the paper's scalar PPA metric Perf²/(Power·Area). A failed
// evaluation trades off at zero (its PPA is unusable, not merely poor).
func (e *Evaluation) Tradeoff() float64 {
	if e.Failed {
		return 0
	}
	return mcpat.PPA(e.PPA.Perf, e.PPA.Power, e.PPA.Area)
}

// Evaluator runs detailed simulations and accounts the simulation budget.
// A full "simulation" is one (config, workload) run over the evaluation
// trace, matching the paper's budget axis. ArchExplorer's bottleneck
// probes follow Section 5.1: they simulate only a prefix of each workload
// ("the first hundred thousand instructions of each Simpoint"), so a probe
// is charged the corresponding fraction of a simulation. Cached repeats
// are free, including re-requests that only add the DEG report to an
// already-paid evaluation.
//
// The per-(config, workload) runs are independent, so an evaluation fans
// its workloads out across Parallelism workers; EvaluateBatch additionally
// fans out across design points. Results — PPA, PerWorkloadIPC, merged
// reports, History order, Sims accounting — are byte-identical to fully
// sequential operation regardless of completion order: workers fill
// per-workload slots that are reduced in suite order, and budget charges
// commit in request order.
type Evaluator struct {
	Space     *uarch.Space
	Workloads []workload.Profile
	TraceLen  int
	// ProbeDiv is the trace-length divisor for probe evaluations (the
	// paper's 100k-of-100M would be 1000; the synthetic traces are far
	// shorter, so probes default to 1/8 of the evaluation trace).
	ProbeDiv int

	// Parallelism bounds the concurrent (config, workload) simulations a
	// single evaluation or batch fans out. 0, the default, shares the
	// process-wide GOMAXPROCS compute-slot pool with every other
	// evaluator; 1 runs fully sequentially (today's behavior); any other
	// value uses a private pool of that size.
	Parallelism int

	// Weights are Equation 2's designer-preference coefficients w_i, one
	// per workload. Nil means uniform 1/|B| (the paper's experimental
	// setting). They weight both the merged bottleneck report and the
	// averaged IPC/power.
	Weights []float64

	// UseCalipers swaps the bottleneck analyzer for the previous (static)
	// DEG formulation — the Section 6.2 comparison where the old
	// formulation's mis-attributed contributions steer the same DSE loop.
	UseCalipers bool

	// DEGWindow switches bottleneck analysis to windows of this many
	// instructions, each with a context margin derived from the config's
	// ROB (deg.RequiredOverlap). 0, the default, keeps whole-trace
	// analysis. A windowed full evaluation fuses simulation and analysis
	// into one streaming stage, deg_stream: the simulator's chunk sink
	// feeds each ooo.DefaultChunkSize chunk of committed records straight
	// to a deg.StreamAnalyzer, which seals each window as soon as its
	// margin has arrived and analyzes it on its window ring while the
	// simulation goes on. No full trace is materialized, so peak memory is
	// O(window + margin) instead of O(trace). The ring runs
	// par.DefaultLimit() (GOMAXPROCS) windows at a time, one at
	// GOMAXPROCS=1; those workers are not drawn from the Parallelism slot
	// pool, since the windowed phases are short and self-balancing. Probes
	// and calipers runs need the materialized trace: they simulate, then
	// analyze it with the sequential deg.AnalyzeWindowed. Reports are
	// bit-identical either way, at any worker count.
	DEGWindow int

	// Deprecated: DEGOverlap is ignored; every window's margin is derived
	// from the config's ROB. It remains until the archbench module stops
	// naming it.
	DEGOverlap int

	// Deprecated: DEGStream is ignored; a windowed full evaluation always
	// streams. It remains until the archbench module stops naming it.
	DEGStream bool

	// Sims counts the simulation budget spent so far, in units of full
	// (config, workload) simulations. It is mutated only while committing
	// finished evaluations on the calling goroutine; explorers read it
	// between calls as before.
	Sims float64

	// History records every distinct evaluation in completion order.
	History []*Evaluation

	// Obs, when non-nil, receives telemetry: cache and evaluation
	// counters, the in-flight gauge, per-stage latency histograms, and —
	// when a journal is attached — one EvalSpan per committed evaluation
	// plus the hierarchical batch/eval/stage SpanEvents the selfdeg
	// analysis consumes. Journal events are emitted exclusively from the
	// commit phase, in commit order, so the event sequence is deterministic
	// regardless of the worker fan-out; with Obs nil every result is
	// byte-identical to an uninstrumented evaluator.
	Obs *obs.Recorder

	// SpanParent is the journal span id the evaluator's batch spans parent
	// to: the campaign span (set once by the driving tool) or the current
	// iteration span (set and restored around each explorer step, on the
	// driving goroutine). 0 — no parent — simply roots the batches.
	SpanParent int64

	// slots assigns worker-slot numbers to stage spans (see spans.go).
	slots slotTracker

	// Faults is the injected failure plan driving the fault-tolerance test
	// harness; nil (the default) injects nothing. Each pipeline stage
	// consults its named site before running.
	Faults *fault.Plan

	// Retry is the capped-exponential-backoff policy applied to transient
	// stage failures (including timeouts). The zero value retries nothing:
	// a transient failure then surfaces like a permanent one.
	Retry fault.Retry

	// StageTimeout bounds each stage attempt: the attempt is cancelled at
	// its next cancellation point (an injected stall, a streamed chunk) and
	// retried as a transient failure. Buffered sim and DEG stages have no
	// such point; they run to completion and keep their result. 0 disables
	// the bound.
	StageTimeout time.Duration

	// SkipFailures degrades a permanently failed evaluation to a journaled
	// skip — it enters History marked Failed, charged its full suite cost —
	// instead of aborting the campaign. Kill-class faults always abort.
	SkipFailures bool

	// Checkpoint, when non-nil, is invoked after every batch that committed
	// at least one evaluation, on the committing goroutine. The persist
	// package wires it to an atomic campaign snapshot.
	Checkpoint func()

	// restored is the replay store for checkpoint resume (see resume.go):
	// committed outcomes from a previous incarnation of this campaign,
	// served instead of simulating so the re-run retraces the original.
	restored map[cacheKey]*RestoredResult

	// mu guards cache, History, Sims, and obsSpans against the
	// evaluator's own batch fan-out. The exported fields are still meant
	// to be inspected from the goroutine driving the exploration loop.
	mu    sync.Mutex
	cache map[cacheKey]*Evaluation

	// obsSpans remembers the journal span id of each cached entry so a
	// DEG upgrade can reference the span it supersedes.
	obsSpans map[cacheKey]int64
}

type cacheKey struct {
	pt    uarch.Point
	probe bool
}

// NewEvaluator builds an evaluator over the given suite.
func NewEvaluator(space *uarch.Space, suite []workload.Profile, traceLen int) *Evaluator {
	if traceLen <= 0 {
		traceLen = 4000
	}
	return &Evaluator{
		Space:     space,
		Workloads: suite,
		TraceLen:  traceLen,
		ProbeDiv:  8,
		cache:     make(map[cacheKey]*Evaluation),
	}
}

// Evaluate fully simulates the design point on every workload. withDEG
// also runs the critical-path bottleneck analysis and merges the
// per-workload reports with uniform weights (Equation 2 with w_i = 1/|B|).
func (ev *Evaluator) Evaluate(pt uarch.Point, withDEG bool) (*Evaluation, error) {
	out, err := ev.batch([]uarch.Point{pt}, withDEG, false)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// Probe is the cheap bottleneck-analysis evaluation ArchExplorer steps on:
// a short trace prefix with DEG analysis, charged fractionally.
func (ev *Evaluator) Probe(pt uarch.Point) (*Evaluation, error) {
	out, err := ev.batch([]uarch.Point{pt}, true, true)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// EvaluateBatch evaluates independent design points, fanning both points
// and their workloads out across the evaluator's parallelism. The returned
// slice aligns with pts; duplicated or already-cached points are resolved
// once and charged exactly as a sequential Evaluate loop would charge
// them. Results and accounting are byte-identical to calling Evaluate on
// each point in slice order.
func (ev *Evaluator) EvaluateBatch(pts []uarch.Point, withDEG bool) ([]*Evaluation, error) {
	return ev.batch(pts, withDEG, false)
}

// ProbeBatch is EvaluateBatch for probe evaluations.
func (ev *Evaluator) ProbeBatch(pts []uarch.Point) ([]*Evaluation, error) {
	return ev.batch(pts, true, true)
}

// DrawBatch plans the set of design points a sequential budget loop would
// evaluate: it keeps drawing from next while the projected simulation
// count stays under budget, mirroring
//
//	for ev.Sims < budget { ev.Evaluate(next()) }
//
// point for point — a draw that is already cached (or repeats an earlier
// draw in the same batch) projects zero cost, a fresh one projects a full
// (or probe-fraction) suite. next returning ok=false ends the batch early,
// e.g. when a ranked candidate pool runs out. Feed the result to
// EvaluateBatch/ProbeBatch and the budget lands exactly where the
// sequential loop would have left it.
func (ev *Evaluator) DrawBatch(budget float64, probe bool, next func() (uarch.Point, bool)) []uarch.Point {
	_, cost := ev.planCost(probe)
	suiteCost := cost * float64(len(ev.Workloads))
	ev.mu.Lock()
	defer ev.mu.Unlock()
	projected := ev.Sims
	seen := make(map[cacheKey]bool)
	var out []uarch.Point
	for projected < budget {
		pt, ok := next()
		if !ok {
			break
		}
		out = append(out, pt)
		key := cacheKey{pt: pt, probe: probe}
		if seen[key] {
			continue
		}
		if _, hit := ev.cache[key]; hit {
			continue
		}
		seen[key] = true
		projected += suiteCost
	}
	return out
}

// planCost returns the per-workload trace length and budget cost of one
// (config, workload) run: 1.0 for a full simulation, the trace-length
// fraction for a probe (Section 5.1's prefix charging).
func (ev *Evaluator) planCost(probe bool) (traceLen int, cost float64) {
	traceLen = ev.TraceLen
	cost = 1.0
	if probe {
		traceLen = ev.TraceLen / ev.ProbeDiv
		if traceLen < 250 {
			traceLen = 250
		}
		cost = float64(traceLen) / float64(ev.TraceLen)
	}
	return traceLen, cost
}

// job is one deduplicated design point of a batch.
type job struct {
	key     cacheKey
	withDEG bool
	// upgrade marks a cache hit that lacks the requested report: the
	// simulation re-runs to rebuild the trace, but the budget was already
	// paid — cached repeats are free, so the upgrade charges nothing.
	upgrade bool
	slots   []int // indices into the batch output
	e       *Evaluation
	err     error
	// faults are the retry/timeout records collected by this job's workers,
	// flattened in suite order by reduce and journaled at commit.
	faults []obs.FaultEvent
	// spans are the stage spans collected by this job's workers (ids
	// unassigned), flattened in suite order by reduce and emitted at
	// commit; startNS is the job's compute start on the recorder clock.
	spans    []obs.SpanEvent
	startNS  int64
	durNS    int64
	replayed bool
}

// batch implements Evaluate/Probe/EvaluateBatch/ProbeBatch: resolve cache
// hits, compute the missing evaluations in parallel, then commit results in
// request order so History, Sims, and SimsAt match sequential operation.
func (ev *Evaluator) batch(pts []uarch.Point, withDEG, probe bool) ([]*Evaluation, error) {
	out := make([]*Evaluation, len(pts))

	// Span capture starts before cache resolution so the batch span covers
	// the whole call; it is measurement only — ids are allocated and events
	// emitted from the commit phase below.
	rec := ev.Obs
	batchName := "evaluate"
	if probe {
		batchName = "probe"
	}
	var batchStart int64
	if len(pts) > 0 && rec.SpansActive() {
		batchStart = rec.Clock()
		defer rec.TrackSpan(obs.SpanBatch, batchName, "", 0)()
	}

	// Phase 1: resolve hits and dedupe misses in first-occurrence order.
	ev.mu.Lock()
	if ev.cache == nil {
		ev.cache = make(map[cacheKey]*Evaluation)
	}
	var jobs []*job
	byKey := make(map[cacheKey]*job)
	for i, pt := range pts {
		key := cacheKey{pt: pt, probe: probe}
		// Failed entries are sticky: a design that failed permanently is
		// never re-attempted, whatever fidelity is requested.
		if e, ok := ev.cache[key]; ok && (e.Failed || !withDEG || e.Report != nil) {
			out[i] = e
			continue
		}
		if j, ok := byKey[key]; ok {
			j.slots = append(j.slots, i)
			continue
		}
		j := &job{key: key, withDEG: withDEG, slots: []int{i}}
		_, j.upgrade = ev.cache[key]
		byKey[key] = j
		jobs = append(jobs, j)
	}
	ev.mu.Unlock()

	// Cache accounting: every request slot that did not become a job's
	// first occurrence was served from cache (or rides a duplicate).
	ev.Obs.Counter(obs.MetricCacheHits).Add(int64(len(pts) - len(jobs)))
	for _, j := range jobs {
		if j.upgrade {
			ev.Obs.Counter(obs.MetricCacheUpgrades).Inc()
		} else {
			ev.Obs.Counter(obs.MetricCacheMisses).Inc()
		}
	}

	// Phase 2: compute misses — points × workloads fan out onto the
	// compute-slot pool. Job goroutines are structural (they only wait),
	// so they are not slot-bounded themselves.
	if len(jobs) > 0 {
		leaf := ev.leafGate()
		var wg sync.WaitGroup
		for _, j := range jobs {
			j := j
			wg.Add(1)
			go func() {
				defer wg.Done()
				ev.compute(j, probe, leaf)
			}()
		}
		wg.Wait()
	}

	// Phase 3: commit in first-occurrence order — exactly the order a
	// sequential loop would have finished them — assigning SimsAt and
	// History position deterministically. Telemetry is emitted here and
	// only here (never from workers), so the journal's event order is the
	// commit order and therefore reproducible run to run. The batch span
	// id is allocated first, before any eval span, so the id sequence is
	// deterministic too; its event is emitted last, after its children —
	// readers see a post-order traversal of the span tree.
	var batchSpan int64
	if len(pts) > 0 && rec.JournalEnabled() {
		batchSpan = rec.NextSpan()
	}
	committed := false
	for _, j := range jobs {
		if j.err != nil && (fault.IsKill(j.err) || !ev.SkipFailures) {
			return nil, j.err
		}
		var charge float64
		if !j.upgrade {
			_, cost := ev.planCost(probe)
			charge = cost * float64(len(ev.Workloads))
		}
		if j.err != nil {
			// Permanent failure degraded to a journaled skip: a Failed
			// placeholder takes the evaluation's History slot and budget
			// charge, so a resumed campaign replays the skip in place.
			j.e = &Evaluation{
				Point: j.key.pt, Config: ev.Space.Decode(j.key.pt), Probe: probe,
				Failed: true, FailSite: failSite(j.err), FailReason: j.err.Error(),
			}
		}
		ev.mu.Lock()
		ev.Sims += charge
		j.e.SimsAt = ev.Sims
		switch {
		case j.upgrade && j.e.Failed:
			// A failed DEG upgrade keeps the paid-for plain entry in the
			// cache and History; the failure is served to this batch's
			// request slots only.
		case j.upgrade:
			// Upgrade the cached entry in place (adds the report).
			for i, old := range ev.History {
				if old.Point == j.key.pt && old.Probe == j.key.probe {
					ev.History[i] = j.e
					break
				}
			}
			ev.cache[j.key] = j.e
		default:
			ev.History = append(ev.History, j.e)
			ev.cache[j.key] = j.e
		}
		ev.mu.Unlock()
		ev.obsCommit(j, batchSpan)
		for _, i := range j.slots {
			out[i] = j.e
		}
		committed = true
	}
	if committed && ev.Checkpoint != nil {
		ev.Checkpoint()
	}
	if batchSpan != 0 {
		rec.Emit(&obs.SpanEvent{
			Span: batchSpan, Parent: ev.SpanParent, SpanKind: obs.SpanBatch,
			Name: batchName, Hits: len(pts) - len(jobs),
			StartNS: batchStart, DurNS: rec.Clock() - batchStart,
		})
	}
	return out, nil
}

// obsCommit records one committed job on the telemetry recorder: counters,
// the budget gauge, and — when a journal is attached — the evaluation's
// EvalSpan plus its stage SpanEvents and the eval SpanEvent that parents
// them to the batch (children first, parent last). The eval SpanEvent
// reuses the EvalSpan's id, so the two views of one evaluation join on it.
// Runs on the committing goroutine, after the job left the critical
// section; a nil recorder makes it a no-op.
func (ev *Evaluator) obsCommit(j *job, batchSpan int64) {
	rec := ev.Obs
	if rec == nil {
		return
	}
	e := j.e
	switch {
	case e.Failed:
		rec.Counter(obs.MetricEvalSkips).Inc()
	case e.Probe:
		rec.Counter(obs.MetricProbes).Inc()
	default:
		rec.Counter(obs.MetricEvaluations).Inc()
	}
	rec.Gauge(obs.MetricBudgetSpent).Set(e.SimsAt)
	if e.DEGDrops > 0 {
		rec.Counter(obs.MetricDEGDrops).Add(e.DEGDrops)
	}
	if e.DEGWindows > 0 {
		rec.Gauge(obs.MetricDEGWindows).Set(float64(e.DEGWindows))
		rec.Gauge(obs.MetricDEGPeakEdges).Set(float64(e.DEGPeakEdges))
		if !e.Probe { // only the fused stage analyzes windows in parallel
			rec.Gauge(obs.MetricDEGWorkers).Set(float64(par.DefaultLimit()))
		}
	}
	if !rec.JournalEnabled() {
		return
	}
	// Worker-collected retry/timeout records land in the journal here, in
	// suite order, stamped with the design point they belong to.
	for i := range j.faults {
		f := j.faults[i] // copy: Emit assigns the Head in place
		f.Point = append([]int(nil), e.Point[:]...)
		rec.Emit(&f)
	}
	if e.Failed {
		rec.Emit(&obs.FaultEvent{
			Site: e.FailSite, Class: fault.Permanent.String(), Action: "skip",
			Point: append([]int(nil), e.Point[:]...), Err: e.FailReason,
		})
		if batchSpan != 0 {
			// Failed evaluations still occupy campaign wall-clock; an eval
			// span (with whatever stage spans completed before the failure)
			// keeps the selfdeg graph's coverage complete.
			id := rec.NextSpan()
			for i := range j.spans {
				s := j.spans[i] // copy: Emit assigns the Head in place
				s.Span = rec.NextSpan()
				s.Parent = id
				rec.Emit(&s)
			}
			rec.Emit(&obs.SpanEvent{
				Span: id, Parent: batchSpan, SpanKind: obs.SpanEval,
				Name: e.Config.String(), Point: append([]int(nil), e.Point[:]...),
				Cache: "failed", StartNS: j.startNS, DurNS: j.durNS,
			})
		}
		return
	}
	span := rec.NextSpan()
	ev.mu.Lock()
	if ev.obsSpans == nil {
		ev.obsSpans = make(map[cacheKey]int64)
	}
	var replaces int64
	if j.upgrade {
		replaces = ev.obsSpans[j.key]
	}
	ev.obsSpans[j.key] = span
	ev.mu.Unlock()
	rec.Emit(&obs.EvalSpan{
		Span:         span,
		Replaces:     replaces,
		Point:        append([]int(nil), e.Point[:]...),
		Config:       e.Config.String(),
		Probe:        e.Probe,
		SimsAt:       e.SimsAt,
		Perf:         e.PPA.Perf,
		PowerW:       e.PPA.Power,
		AreaMM2:      e.PPA.Area,
		DEGWindows:   e.DEGWindows,
		DEGPeakEdges: e.DEGPeakEdges,
		DEGDrops:     e.DEGDrops,
		SimInsts:     e.SimInsts,
		TraceNS:      e.Times.Trace.Nanoseconds(),
		SimNS:        e.Times.Sim.Nanoseconds(),
		PowerNS:      e.Times.Power.Nanoseconds(),
		DEGNS:        e.Times.DEG.Nanoseconds(),
		DEGStreamNS:  e.Times.DEGStream.Nanoseconds(),
		ElapsedNS:    e.Elapsed.Nanoseconds(),
	})
	if batchSpan == 0 {
		return
	}
	for i := range j.spans {
		s := j.spans[i] // copy: Emit assigns the Head in place
		s.Span = rec.NextSpan()
		s.Parent = span
		rec.Emit(&s)
	}
	cache := ""
	switch {
	case j.upgrade:
		cache = "upgrade"
	case j.replayed:
		cache = "replay"
	}
	rec.Emit(&obs.SpanEvent{
		Span: span, Parent: batchSpan, SpanKind: obs.SpanEval,
		Name: e.Config.String(), Point: append([]int(nil), e.Point[:]...),
		Cache: cache, StartNS: j.startNS, DurNS: j.durNS,
	})
}

// leafGate returns the executor for CPU-bound per-workload tasks: the
// process-wide slot pool by default, a private pool for an explicit
// Parallelism, or nil to request inline (sequential) execution.
func (ev *Evaluator) leafGate() func(func()) {
	switch p := ev.Parallelism; {
	case p == 1:
		return nil
	case p > 1:
		sem := make(chan struct{}, p)
		return func(fn func()) {
			sem <- struct{}{}
			defer func() { <-sem }()
			fn()
		}
	default:
		return par.Slot
	}
}

// wlResult is one workload's slot in an evaluation's fan-out.
type wlResult struct {
	ipc, pow, area float64
	rep            *deg.Report
	simInsts       int64
	degWindows     int
	degPeakEdges   int
	degDrops       int64
	times          StageTimes
	err            error
	// faults are the slot's retry/timeout records, in occurrence order.
	faults []obs.FaultEvent
	// spans are the slot's stage spans, in stage order (ids unassigned).
	spans []obs.SpanEvent
}

// compute runs one job: simulate every workload (concurrently when leaf is
// non-nil), then reduce the per-workload slots in suite order. A job whose
// outcome is in the checkpoint replay store skips simulation entirely.
func (ev *Evaluator) compute(j *job, probe bool, leaf func(func())) {
	// Span interval on the recorder clock (0s with telemetry off). Taken
	// here rather than from Elapsed so every path — replay, validation
	// error, permanent failure — still yields a well-formed interval that
	// contains its stage spans.
	j.startNS = ev.Obs.Clock()
	defer func() { j.durNS = ev.Obs.Clock() - j.startNS }()
	if ev.serveRestored(j, probe) {
		j.replayed = true
		return
	}
	start := time.Now()
	cfg := ev.Space.Decode(j.key.pt)
	if err := cfg.Validate(); err != nil {
		j.err = fmt.Errorf("dse: invalid config: %w", err)
		return
	}
	if ev.Weights != nil && len(ev.Weights) != len(ev.Workloads) {
		j.err = fmt.Errorf("dse: %d weights for %d workloads", len(ev.Weights), len(ev.Workloads))
		return
	}
	traceLen, _ := ev.planCost(probe)

	outs := make([]wlResult, len(ev.Workloads))
	if leaf == nil {
		for k := range ev.Workloads {
			outs[k] = ev.simWorkload(cfg, ev.Workloads[k], traceLen, j.withDEG, probe)
		}
	} else {
		var wg sync.WaitGroup
		for k := range ev.Workloads {
			k := k
			wg.Add(1)
			go func() {
				defer wg.Done()
				leaf(func() {
					outs[k] = ev.simWorkload(cfg, ev.Workloads[k], traceLen, j.withDEG, probe)
				})
			}()
		}
		wg.Wait()
	}
	j.e, j.err = ev.reduce(j, probe, cfg, outs)
	if j.e != nil {
		j.e.Elapsed = time.Since(start)
	}
}

// simOutcome bundles the simulate stage's products so the stage closure can
// return them as one value.
type simOutcome struct {
	tr    *pipetrace.Trace
	stats *ooo.Stats
}

// degOutcome bundles a bottleneck stage's products: the report, the
// windowed analyzer's stats (nil for calipers analysis), and the
// simulation's stats when the stage also simulated (the fused deg_stream
// stage).
type degOutcome struct {
	stats *ooo.Stats
	rep   *deg.Report
	ws    *deg.WindowStats
}

// setDEG records a DEG outcome in the slot by one rule for every analysis
// path: drops always, window count and peak edges only on windowed runs
// (a whole-trace analysis is one window and reports none).
func (r *wlResult) setDEG(d degOutcome, windowed bool) {
	r.rep = d.rep
	if d.ws == nil {
		return
	}
	r.degDrops = int64(d.ws.Dropped())
	if windowed {
		r.degWindows, r.degPeakEdges = d.ws.Windows, d.ws.PeakEdges
	}
}

// timedStage runs one stage through runStage under a span named after its
// fault site, and stores the stage's wall-clock in *dur (the span carries
// the same value, so spans and stage sums agree exactly).
func timedStage[T any](sp *stageSpans, sr *stageRunner, site string, dur *time.Duration, fn func(context.Context) (T, error)) (T, error) {
	endStage := sp.begin(site)
	t0 := time.Now()
	v, err := runStage(sr, site, fn)
	*dur = time.Since(t0)
	endStage(*dur)
	return v, err
}

// simWorkload runs one (config, workload) simulation end to end: trace,
// cycle-level core, power model, and (optionally) bottleneck analysis. Each
// stage runs under the evaluator's resilience policy — fault injection,
// timeout bounding, transient retries — via runStage, on this goroutine.
// A windowed full evaluation runs the fused deg_stream stage in place of
// sim and deg.
func (ev *Evaluator) simWorkload(cfg uarch.Config, wl workload.Profile, traceLen int, withDEG, probe bool) (r wlResult) {
	// Windowed evaluations fuse simulation and analysis; probes need the
	// materialized trace for warm-window IPC and calipers runs need it for
	// the static graph, so both keep the buffered path.
	streamed := withDEG && ev.DEGWindow > 0 && !ev.UseCalipers && !probe
	sr := &stageRunner{ev: ev, workload: wl.Name}
	// Stage span capture (journal and/or live dashboard): occupy a worker
	// slot for the duration of this workload and time each stage against
	// the recorder clock. Off, it costs one atomic load.
	sp := &stageSpans{rec: ev.Obs, wl: wl.Name}
	if ev.Obs.SpansActive() {
		sp.on = true
		sp.slot = ev.slots.acquire()
		defer ev.slots.release(sp.slot)
	}
	// r is a named result so these run after any return statement's copy.
	defer func() { r.spans = sp.out }()
	defer func() { r.faults = sr.recs }()
	// Worker-phase telemetry: the in-flight gauge and latency histograms
	// are unordered aggregates, so they may be updated here; journal
	// events may not (they are commit-phase only).
	if rec := ev.Obs; rec != nil {
		rec.Gauge(obs.MetricSimsInFlight).Add(1)
		defer func() {
			rec.Gauge(obs.MetricSimsInFlight).Add(-1)
			rec.Histogram(obs.MetricStageTrace).Observe(r.times.Trace.Seconds())
			rec.Histogram(obs.MetricStagePower).Observe(r.times.Power.Seconds())
			if streamed {
				rec.Histogram(obs.MetricStageDEGStream).Observe(r.times.DEGStream.Seconds())
			} else {
				rec.Histogram(obs.MetricStageSim).Observe(r.times.Sim.Seconds())
				if withDEG {
					rec.Histogram(obs.MetricStageDEG).Observe(r.times.DEG.Seconds())
				}
			}
			// Counters and gauges are unordered aggregates like the ones
			// above, so the throughput metrics may also land worker-side.
			if r.simInsts > 0 {
				rec.Counter(obs.MetricSimInsts).Add(r.simInsts)
				simSecs := r.times.Sim.Seconds()
				if streamed {
					// The fused stage's wall-clock covers analysis too; it
					// still bounds pipeline throughput from below.
					simSecs = r.times.DEGStream.Seconds()
				}
				if simSecs > 0 {
					rec.Gauge(obs.MetricSimInstRate).Set(float64(r.simInsts) / simSecs)
				}
			}
		}()
	}

	stream, err := timedStage(sp, sr, fault.SiteTrace, &r.times.Trace, func(context.Context) ([]isa.Inst, error) {
		return workload.CachedTrace(wl, traceLen)
	})
	if err != nil {
		r.err = err
		return r
	}

	// stats feeds the power model. tr is a buffered run's materialized
	// trace, which warm-window IPC and the deg stage read; nil when
	// streamed.
	var stats *ooo.Stats
	var tr *pipetrace.Trace
	if streamed {
		d, err := timedStage(sp, sr, fault.SiteDEGStream, &r.times.DEGStream, func(ctx context.Context) (degOutcome, error) {
			return ev.runStreamed(ctx, cfg, wl, stream)
		})
		if err != nil {
			r.err = err
			return r
		}
		stats = d.stats
		r.setDEG(d, ev.DEGWindow > 0)
	} else {
		sim, err := timedStage(sp, sr, fault.SiteSim, &r.times.Sim, func(context.Context) (simOutcome, error) {
			core, err := ooo.New(cfg)
			if err != nil {
				return simOutcome{}, err
			}
			// The trace and Stats the run returns do not share the core's storage.
			defer core.Release()
			tr, stats, err := core.Run(stream)
			if err != nil {
				return simOutcome{}, fmt.Errorf("dse: %s on %s: %w", wl.Name, cfg, err)
			}
			if len(tr.Records) == 0 {
				tr.Release()
				return simOutcome{}, fmt.Errorf("dse: %s on %s: simulation committed no instructions", wl.Name, cfg)
			}
			return simOutcome{tr: tr, stats: stats}, nil
		})
		if err != nil {
			r.err = err
			return r
		}
		tr, stats = sim.tr, sim.stats
		// The trace is consumed entirely within this call (warm-window IPC
		// and the DEG report aggregate; neither escapes holding record
		// references), and every stage attempt that reads it has returned by
		// then, so its buffers recycle through the trace pool when this call
		// returns.
		defer tr.Release()
	}
	r.simInsts = int64(stats.Committed)

	pw, err := timedStage(sp, sr, fault.SitePower, &r.times.Power, func(context.Context) (mcpat.Result, error) {
		return mcpat.Evaluate(cfg, stats)
	})
	if err != nil {
		r.err = err
		return r
	}
	r.ipc = stats.IPC()
	if probe { // probes never stream, so tr is set
		if w, ok := warmWindowIPC(tr); ok {
			r.ipc = w
		}
	}
	r.pow = pw.PowerW
	r.area = pw.AreaMM2

	if withDEG && !streamed {
		d, err := timedStage(sp, sr, fault.SiteDEG, &r.times.DEG, func(context.Context) (degOutcome, error) {
			if ev.UseCalipers {
				rep, err := calipersReport(tr, cfg)
				return degOutcome{rep: rep}, err
			}
			rep, ws, err := deg.AnalyzeWindowed(tr, deg.WindowOptions{
				Window: ev.DEGWindow, ReorderWindow: cfg.ROBEntries,
			})
			return degOutcome{rep: rep, ws: ws}, err
		})
		if err != nil {
			r.err = err
			return r
		}
		r.setDEG(d, ev.DEGWindow > 0)
	}
	return r
}

// runStreamed is one attempt of the fused stage. The simulator's chunk sink
// feeds each chunk straight to the stream analyzer on this goroutine; the
// analyzer's window ring overlaps window analysis with the rest of the
// simulation, and the analyzer evicts records no later window can reach.
// A Feed error stops the simulation at the chunk that failed, and so does
// ctx ending (the stage timeout).
func (ev *Evaluator) runStreamed(ctx context.Context, cfg uarch.Config, wl workload.Profile, stream []isa.Inst) (degOutcome, error) {
	sa, err := deg.NewStreamAnalyzer(deg.WindowOptions{
		Window: ev.DEGWindow, ReorderWindow: cfg.ROBEntries,
		Workers: par.DefaultLimit(),
	})
	if err != nil {
		return degOutcome{}, err
	}
	defer sa.Close() // idempotent; pairs with Finish on the success path
	core, err := ooo.New(cfg)
	if err != nil {
		return degOutcome{}, err
	}
	defer core.Release()

	stats, err := core.RunStream(stream, ooo.DefaultChunkSize, func(c *pipetrace.Trace) error {
		if err := ctx.Err(); err != nil {
			c.Release()
			return err
		}
		return sa.Feed(c) // Feed owns c, on error too
	})
	if err != nil {
		return degOutcome{}, fmt.Errorf("dse: %s on %s: %w", wl.Name, cfg, err)
	}
	if stats.Committed == 0 {
		return degOutcome{}, fmt.Errorf("dse: %s on %s: simulation committed no instructions", wl.Name, cfg)
	}
	rep, ws, err := sa.Finish(stats.Cycles)
	if err != nil {
		return degOutcome{}, err
	}
	return degOutcome{stats: stats, rep: rep, ws: ws}, nil
}

// warmWindowIPC measures IPC over the post-warmup window of a probe trace:
// short prefixes are dominated by cold caches and predictor warmup, so the
// first third is discarded to keep probe estimates comparable with full
// evaluations. Traces too small to carve a window (fewer than three
// committed records) or whose window spans zero cycles report ok=false and
// the caller keeps the whole-trace IPC — previously such traces indexed
// out of range and panicked.
func warmWindowIPC(tr *pipetrace.Trace) (float64, bool) {
	n := len(tr.Records)
	if n < 3 {
		return 0, false
	}
	warm := n / 3
	span := tr.Records[n-1].Stamp[pipetrace.SC] - tr.Records[warm].Stamp[pipetrace.SC]
	if span <= 0 {
		return 0, false
	}
	return float64(n-warm-1) / float64(span), true
}

// reduce folds the per-workload slots into one Evaluation in suite order,
// making the result independent of the order workers finished in. A failed
// workload surfaces the lowest-index error, again deterministically.
func (ev *Evaluator) reduce(j *job, probe bool, cfg uarch.Config, outs []wlResult) (*Evaluation, error) {
	// Fault records flatten in suite order first — retries that preceded a
	// failure are real events and must reach the journal either way. Stage
	// spans flatten in the same order, making the per-eval span sequence
	// deterministic however the workers interleaved.
	for k := range outs {
		j.faults = append(j.faults, outs[k].faults...)
		j.spans = append(j.spans, outs[k].spans...)
	}
	for k := range outs {
		if outs[k].err != nil {
			return nil, outs[k].err
		}
	}
	e := &Evaluation{Point: j.key.pt, Config: cfg, Probe: probe}
	var ipcSum, powSum, area float64
	var reports []*deg.Report
	for k := range outs {
		ipcSum += outs[k].ipc
		powSum += outs[k].pow
		area = outs[k].area
		e.PerWorkloadIPC = append(e.PerWorkloadIPC, outs[k].ipc)
		if j.withDEG {
			reports = append(reports, outs[k].rep)
		}
		e.Times.add(outs[k].times)
		e.SimInsts += outs[k].simInsts
		e.DEGWindows += outs[k].degWindows
		if outs[k].degPeakEdges > e.DEGPeakEdges {
			e.DEGPeakEdges = outs[k].degPeakEdges
		}
		e.DEGDrops += outs[k].degDrops
	}

	if ev.Weights != nil {
		var wsum, ipcW float64
		for i, w := range ev.Weights {
			wsum += w
			ipcW += w * e.PerWorkloadIPC[i]
		}
		if wsum <= 0 {
			return nil, fmt.Errorf("dse: non-positive weight sum")
		}
		// Power re-weighted consistently with the per-workload shares.
		powW := powSum / float64(len(ev.Workloads)) // activity averaging kept uniform
		e.PPA = pareto.Point{Perf: ipcW / wsum, Power: powW, Area: area}
	} else {
		n := float64(len(ev.Workloads))
		e.PPA = pareto.Point{Perf: ipcSum / n, Power: powSum / n, Area: area}
	}
	if j.withDEG {
		merged, err := deg.Merge(reports, ev.Weights)
		if err != nil {
			return nil, err
		}
		e.Report = merged
	}
	return e, nil
}

// StageTotals sums the per-stage worker time over every evaluation in the
// history — the observable cost breakdown a campaign prints.
func (ev *Evaluator) StageTotals() StageTimes {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	var t StageTimes
	for _, e := range ev.History {
		t.add(e.Times)
	}
	return t
}

// Points returns the PPA outcomes of full-fidelity evaluations in
// completion order (the input to hypervolume-versus-budget curves).
func (ev *Evaluator) Points() []pareto.Point {
	var out []pareto.Point
	for _, e := range ev.History {
		if e.Probe || e.Failed {
			continue
		}
		out = append(out, e.PPA)
	}
	return out
}

// Features converts a design point to a normalised feature vector in
// [0,1]^NumParams for the ML baselines.
func (ev *Evaluator) Features(pt uarch.Point) []float64 {
	f := make([]float64, uarch.NumParams)
	for p := 0; p < uarch.NumParams; p++ {
		levels := ev.Space.Levels(uarch.Param(p))
		if levels > 1 {
			f[p] = float64(pt[p]) / float64(levels-1)
		}
	}
	return f
}

// Explorer is a DSE algorithm: it spends at most the given simulation
// budget on the evaluator and leaves its evaluations in the history.
type Explorer interface {
	Name() string
	Run(ev *Evaluator, budget int) error
}

// PointsUpTo returns the PPA outcomes of every evaluation whose cumulative
// simulation cost is within the given budget, in completion order. The
// exploration set includes probe evaluations: their short-prefix PPA
// estimates are conservative (cold caches and predictors bias IPC down),
// and the paper likewise records every explored design, re-evaluating the
// Pareto candidates at full fidelity.
func (ev *Evaluator) PointsUpTo(budget float64) []pareto.Point {
	var out []pareto.Point
	for _, e := range ev.History {
		if e.SimsAt > budget || e.Failed {
			continue
		}
		out = append(out, e.PPA)
	}
	return out
}

// calipersReport adapts the previous formulation's critical-path output to
// the Report shape the explorer consumes, so the same reassignment loop can
// be driven by the old (statically weighted, double-counting) attribution.
func calipersReport(tr *pipetrace.Trace, cfg uarch.Config) (*deg.Report, error) {
	g, err := calipers.Build(tr, calipers.Config{
		ROBEntries: cfg.ROBEntries, IQEntries: cfg.IQEntries,
		LQEntries: cfg.LQEntries, SQEntries: cfg.SQEntries,
		Width: cfg.Width, RdWrPorts: cfg.RdWrPorts,
	})
	if err != nil {
		return nil, err
	}
	res, err := g.CriticalPath()
	if err != nil {
		return nil, err
	}
	rep := &deg.Report{L: res.Length}
	if rep.L <= 0 {
		rep.L = 1
	}
	var attributed int64
	for r, d := range res.DelayByRes {
		rep.DelayByRes[r] = d
		rep.Contrib[r] = float64(d) / float64(rep.L)
		attributed += d
	}
	rep.Base = 1 - float64(attributed)/float64(rep.L)
	return rep, nil
}
