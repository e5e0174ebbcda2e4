// Package conformance is the differential-testing harness over the
// simulator's timing entry points — per-config Core.Run and streaming
// Core.RunStream, one per-instruction loop that packages its records as
// one trace or as chunks — plus Run on a recycled core (one a different
// config released, as in the evaluator's steady state), and the parallel
// windowed DEG pipeline: RunStream chunks fed straight into a 4-worker
// deg.StreamAnalyzer, the shape of the evaluator's windowed full
// evaluations. All of them implement one timing-and-attribution model, so
// for any (config, stream) pair they must agree exactly; the package
// quantifies that over randomly drawn valid configurations.
//
// The timing oracle is the fingerprint family in internal/ooo: the
// reference and recycled runs are hashed through ooo.Fingerprint (every
// deterministic record field), and the chunked stream through
// ooo.ChunkedFingerprint, the same byte layout fed chunk by chunk.
// Agreement of the traces' annotations is necessary but not sufficient
// for ArchExplorer, whose decisions consume the bottleneck reports, so the
// streamed DEG pipeline must also reproduce the report and stats of the
// sequential reference, deg.AnalyzeWindowed over the reference trace, bit
// for bit.
//
// When a draw disagrees, Shrink reduces the failing design point toward
// the baseline one lattice step at a time, so the reported counterexample
// is (locally) minimal and the offending parameter is usually legible
// straight from the diff against Baseline.
package conformance

import (
	"fmt"
	"math/rand"
	"reflect"

	"archexplorer/internal/deg"
	"archexplorer/internal/isa"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// Gen draws random valid design points from a space. Deterministic for a
// seed, so every corpus failure names the draw that reproduces it.
type Gen struct {
	Space *uarch.Space
	rng   *rand.Rand
}

// NewGen returns a seeded generator over the standard Table 4 space.
func NewGen(seed int64) *Gen {
	return &Gen{Space: uarch.StandardSpace(), rng: rand.New(rand.NewSource(seed))}
}

// Point draws a design point whose decoded config passes validation.
// Random points over the standard space are essentially always valid; the
// loop guards against value tables whose cross product admits degenerate
// corners.
func (g *Gen) Point() uarch.Point {
	for {
		pt := g.Space.Random(g.rng)
		if g.Space.Decode(pt).Validate() == nil {
			return pt
		}
	}
}

// Config draws a random valid configuration.
func (g *Gen) Config() uarch.Config { return g.Space.Decode(g.Point()) }

// Mismatch is one engine disagreement: the named engine's output diverged
// from the per-config reference run on this (config, workload).
type Mismatch struct {
	Engine    string // "stream", "recycled", "deg-stream"
	Workload  string
	Config    uarch.Config
	Want, Got uint64 // reference and diverging fingerprints (0 for the deg engines)
}

// Error implements error.
func (m *Mismatch) Error() string {
	return fmt.Sprintf("conformance: %s engine diverged on %s: fingerprint %#x, reference %#x\nconfig: %+v",
		m.Engine, m.Workload, m.Got, m.Want, m.Config)
}

// Check cross-checks every engine for each config over one instruction
// stream, one config at a time, and returns the first disagreement as a
// *Mismatch (or the first operational error). nil means all engines agreed
// on every config. withDEG adds the streamed DEG pipeline.
func Check(stream []isa.Inst, wl string, cfgs []uarch.Config, withDEG bool) error {
	if len(cfgs) == 0 {
		return fmt.Errorf("conformance: no configs to check")
	}
	for _, cfg := range cfgs {
		r, err := runEngines(stream, cfg, withDEG)
		if err != nil {
			return err
		}
		if engine, want, got := r.diverged(); engine != "" {
			return &Mismatch{Engine: engine, Workload: wl, Config: cfg, Want: want, Got: got}
		}
	}
	return nil
}

// engineRuns is one config's engine outputs over a stream, reduced to what
// the oracles compare.
type engineRuns struct {
	ref      uint64 // reference Run: Fingerprint
	stream   uint64 // RunStream: ChunkedFingerprint
	recycled uint64 // Run on a recycled core: Fingerprint
	// With the DEG oracle on: the sequential windowed analysis of the
	// reference trace (seq) and the streamed pipeline that must reproduce
	// it. Both stay zero, and so agree, without it.
	seq, streamed windowed
}

// windowed is one windowed DEG analysis: the stitched report and its stats.
type windowed struct {
	rep *deg.Report
	st  *deg.WindowStats
}

// diverged names the first engine that disagrees with the reference, with
// the fingerprints it compared (zero for the DEG engines); "" means every
// engine agreed.
func (r *engineRuns) diverged() (engine string, want, got uint64) {
	switch {
	case r.stream != r.ref:
		return "stream", r.ref, r.stream
	case r.recycled != r.ref:
		return "recycled", r.ref, r.recycled
	case !reflect.DeepEqual(r.streamed, r.seq):
		return "deg-stream", 0, 0
	}
	return "", 0, 0
}

// runEngines runs every engine for cfg over stream.
func runEngines(stream []isa.Inst, cfg uarch.Config, withDEG bool) (*engineRuns, error) {
	// Reference: the plain per-config engine.
	core, err := ooo.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, st, err := core.Run(stream)
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	r := &engineRuns{ref: ooo.Fingerprint(tr, st)}

	if r.stream, err = streamFingerprint(cfg, stream); err != nil {
		return nil, err
	}
	if r.recycled, err = recycledFingerprint(cfg, stream); err != nil {
		return nil, err
	}
	if !withDEG {
		return r, nil
	}

	// Window at roughly a quarter of the trace so the run genuinely spans
	// several windows, with the margin derived from the config's own
	// reorder window; the streamed analyzer runs 4 workers.
	opt := deg.WindowOptions{Window: max(1, len(tr.Records)/4), ReorderWindow: cfg.ROBEntries}
	if r.seq.rep, r.seq.st, err = deg.AnalyzeWindowed(tr, opt); err != nil {
		return nil, err
	}
	opt.Workers = 4
	if r.streamed, err = streamWindowed(cfg, stream, opt); err != nil {
		return nil, err
	}
	return r, nil
}

// streamFingerprint runs the streaming engine and folds its chunks through
// the chunk-ordered fingerprint. Chunks are retained until the stats (the
// hash preamble) are known, then released.
func streamFingerprint(cfg uarch.Config, stream []isa.Inst) (uint64, error) {
	core, err := ooo.New(cfg)
	if err != nil {
		return 0, err
	}
	var chunks []*pipetrace.Trace
	defer func() {
		for _, c := range chunks {
			c.Release()
		}
	}()
	st, err := core.RunStream(stream, 0, func(c *pipetrace.Trace) error {
		chunks = append(chunks, c)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ooo.ChunkedFingerprint(st.Cycles, st, func(hash func(*pipetrace.Record)) {
		for _, c := range chunks {
			for i := range c.Records {
				hash(&c.Records[i])
			}
		}
	}), nil
}

// recycledFingerprint runs cfg on a core recycled from a run of a
// different config, and fingerprints it like the reference. The other
// config is cfg's mirror image in the standard space (every parameter's
// level reflected), so the recycled core changes cache shapes, ROB (and
// with it the issue ring) and widths between the two runs. The final core
// is dropped, not released: that normally leaves the pool empty, so the
// other engines keep running on fresh cores.
func recycledFingerprint(cfg uarch.Config, stream []isa.Inst) (uint64, error) {
	space := uarch.StandardSpace()
	pt := space.Nearest(cfg)
	for p := range pt {
		pt[p] = space.Levels(uarch.Param(p)) - 1 - pt[p]
	}
	prev, err := ooo.New(space.Decode(pt))
	if err != nil {
		return 0, err
	}
	ptr, _, err := prev.Run(stream)
	if err != nil {
		return 0, err
	}
	ptr.Release()
	prev.Release()
	core, err := ooo.New(cfg)
	if err != nil {
		return 0, err
	}
	tr, st, err := core.Run(stream)
	if err != nil {
		return 0, err
	}
	defer tr.Release()
	return ooo.Fingerprint(tr, st), nil
}

// streamWindowed runs the streamed DEG pipeline: the streaming engine's
// chunks go straight into a StreamAnalyzer, so no trace is materialized.
func streamWindowed(cfg uarch.Config, stream []isa.Inst, opt deg.WindowOptions) (windowed, error) {
	core, err := ooo.New(cfg)
	if err != nil {
		return windowed{}, err
	}
	sa, err := deg.NewStreamAnalyzer(opt)
	if err != nil {
		return windowed{}, err
	}
	defer sa.Close() // idempotent; Finish closes on the success path
	st, err := core.RunStream(stream, 0, sa.Feed)
	if err != nil {
		return windowed{}, err
	}
	rep, ws, err := sa.Finish(st.Cycles)
	return windowed{rep: rep, st: ws}, err
}

// Shrink greedily minimises a failing design point toward the space's
// baseline: move one parameter one lattice level toward the baseline point
// and keep any move that preserves the failure, until no single step does.
// The result is a locally minimal counterexample, so the offending
// parameters are legible from a diff against Baseline. The predicate is
// re-run on candidates only (never on pt itself), so callers pass a point
// they already know fails.
func Shrink(space *uarch.Space, pt uarch.Point, fails func(uarch.Point) bool) uarch.Point {
	base := space.Nearest(uarch.Baseline())
	for progress := true; progress; {
		progress = false
		for p := 0; p < uarch.NumParams; p++ {
			for pt[p] != base[p] {
				cand := pt
				if cand[p] > base[p] {
					cand[p]--
				} else {
					cand[p]++
				}
				if space.Decode(cand).Validate() != nil || !fails(cand) {
					break
				}
				pt = cand
				progress = true
			}
		}
	}
	return pt
}

// StrictCapacityParams are the pure window/register capacities of Table 4:
// ROB, issue queue, load/store queues, and the physical register files.
// Growing one only relaxes rename stalls — it admits instructions into
// flight sooner but never reorders anything already in flight — so under
// this timing model IPC is strictly monotonic in each of them. The
// metamorphic suite asserts that with zero tolerance.
func StrictCapacityParams() []uarch.Param {
	return []uarch.Param{
		uarch.ParamROB, uarch.ParamIQ, uarch.ParamLQ, uarch.ParamSQ,
		uarch.ParamIntRF, uarch.ParamFpRF,
	}
}

// FUParams are the functional-unit counts. Growth almost always helps, but
// an extra unit can change which ready instruction issues first, and the
// reordered memory operations then see different cache (LRU) and
// store-forwarding state — a second-order effect that occasionally costs a
// few cycles. Empirically (thousands of random grow-one-level pairs) the
// worst observed regression is under 0.3% relative IPC, so the metamorphic
// suite bounds FU growth with FUTolerance instead of demanding strictness.
func FUParams() []uarch.Param {
	return []uarch.Param{
		uarch.ParamIntALU, uarch.ParamIntMultDiv, uarch.ParamFpALU, uarch.ParamFpMultDiv,
	}
}

// CapacityParams is every resource the monotonicity suite grows: the
// strict capacities followed by the FU counts. Predictor tables and caches
// are deliberately excluded — bigger tables change which branches
// mispredict and which lines survive, effects that are non-monotonic by
// nature (aliasing can help).
func CapacityParams() []uarch.Param {
	return append(StrictCapacityParams(), FUParams()...)
}

// EdgeConfigs returns the capacity-floor corners of the standard space:
// the baseline with every window capacity (and the fetch queue) floored at
// once — at both width extremes — plus the baseline with each capacity
// floored individually. Random corpus draws essentially never land on
// these corners, yet they are exactly where the capacity-pool free lists
// saturate every cycle and where an off-by-one in pool bookkeeping or
// release tie order would first show. Only validating configs are
// returned, so the list tracks the space's own floors.
func EdgeConfigs() []uarch.Config {
	space := uarch.StandardSpace()
	base := space.Nearest(uarch.Baseline())
	starved := append(CapacityParams(), uarch.ParamFetchQueue)
	var out []uarch.Config
	for _, w := range []int{0, space.Levels(uarch.ParamWidth) - 1} {
		pt := base
		pt[uarch.ParamWidth] = w
		for _, p := range starved {
			pt[p] = 0
		}
		if c := space.Decode(pt); c.Validate() == nil {
			out = append(out, c)
		}
	}
	for _, p := range starved {
		pt := base
		pt[p] = 0
		if c := space.Decode(pt); c.Validate() == nil {
			out = append(out, c)
		}
	}
	return out
}

// FUTolerance is the allowed relative IPC drop when growing one FU count:
// an order of magnitude above the worst second-order regression observed,
// far below what any real scheduling or accounting bug costs.
const FUTolerance = 0.01

// GrowthViolation reports a monotonicity break: growing Param one level
// turned BaseIPC into GrownIPC, a drop beyond the tolerance.
type GrowthViolation struct {
	Param             uarch.Param
	Workload          string
	Base, Grown       uarch.Config
	BaseIPC, GrownIPC float64
}

// Error implements error, printing the offending config pair.
func (v *GrowthViolation) Error() string {
	return fmt.Sprintf("conformance: IPC not monotonic in %v on %s: %.6f -> %.6f\n  base:  %+v\n  grown: %+v",
		v.Param, v.Workload, v.BaseIPC, v.GrownIPC, v.Base, v.Grown)
}

// CheckGrowth grows prm one lattice level from pt and compares IPC over
// stream: a relative drop beyond tol is returned as a *GrowthViolation.
// checked is false when pt is already at the top level (or either config
// fails validation) and nothing was compared.
func CheckGrowth(space *uarch.Space, pt uarch.Point, prm uarch.Param, stream []isa.Inst, wl string, tol float64) (checked bool, err error) {
	up := pt
	if !space.Step(&up, prm, 1) {
		return false, nil
	}
	base, grown := space.Decode(pt), space.Decode(up)
	if base.Validate() != nil || grown.Validate() != nil {
		return false, nil
	}
	a, err := IPC(base, stream)
	if err != nil {
		return true, err
	}
	b, err := IPC(grown, stream)
	if err != nil {
		return true, err
	}
	if b < a*(1-tol) {
		return true, &GrowthViolation{
			Param: prm, Workload: wl, Base: base, Grown: grown, BaseIPC: a, GrownIPC: b,
		}
	}
	return true, nil
}

// IPC is the monotonicity metric: committed IPC of one run of cfg over
// stream.
func IPC(cfg uarch.Config, stream []isa.Inst) (float64, error) {
	core, err := ooo.New(cfg)
	if err != nil {
		return 0, err
	}
	tr, st, err := core.Run(stream)
	if err != nil {
		return 0, err
	}
	tr.Release()
	return st.IPC(), nil
}
