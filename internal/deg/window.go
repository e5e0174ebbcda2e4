package deg

import (
	"fmt"
	"slices"
	"sync"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// DefaultOverlap is the context margin, in instructions, prepended to each
// window when WindowOptions.Overlap is zero and no ReorderWindow is given.
// Dependence annotations point backwards at most as far as the in-flight
// window allows, so the margin must cover the evaluated config's ROB (the
// design space sweeps it up to 256 entries — seq(32, 256, 16) in
// uarch.StandardSpace) plus refill slack. A caller that knows its config
// should set ReorderWindow and let RequiredOverlap derive the margin; this
// constant is only the config-free fallback, sized for ROBs up to
// 256 - RefillSlack instructions.
const DefaultOverlap = 256

// RefillSlack is the margin added on top of the reorder window when
// deriving a window overlap from a config: misprediction-refill sources
// and fetch-group producers can reach slightly past the ROB's reach
// (redirect penalty, fetch-queue drain), so the derived margin is
// ROB + RefillSlack.
const RefillSlack = 64

// RequiredOverlap returns the context margin the windowed analyzer needs
// for a design with the given reorder window (ROB entries): every producer
// annotation a window-interior instruction can name falls within it.
func RequiredOverlap(reorderWindow int) int {
	if reorderWindow <= 0 {
		return DefaultOverlap
	}
	o := reorderWindow + RefillSlack
	if o < DefaultOverlap {
		o = DefaultOverlap
	}
	return o
}

// WindowOptions tunes the windowed analyzer.
type WindowOptions struct {
	Options
	// Window is the number of instructions per analysis window. Zero (or a
	// value >= the trace length) analyzes the whole trace in one pass,
	// byte-identical to Analyze.
	Window int
	// Overlap is the context margin in instructions prepended to each
	// window so cross-boundary edges are seen; the margin's edges are
	// attributed only by the window that owns their head instruction, so
	// each edge is counted exactly once. Zero derives the margin from
	// ReorderWindow (RequiredOverlap), or DefaultOverlap when neither is
	// set.
	//
	// Overlap >= Window is valid, not a validation error: neighbouring
	// windows' margins then overlap each other's interiors, but because
	// attribution is ownership-based — an edge is counted only by the one
	// window whose [lo, hi) range contains its head instruction, and those
	// ranges partition the trace — no edge can be stitched twice no matter
	// how far the margins reach. TestOverlapCoversTraceMatchesWholeTrace
	// pins the limiting case (margin covering the whole trace must
	// reproduce whole-trace Analyze exactly).
	Overlap int
	// ReorderWindow is the evaluated config's ROB capacity in
	// instructions. When set, a zero Overlap derives the margin as
	// RequiredOverlap(ReorderWindow), and an explicit Overlap smaller than
	// ReorderWindow is rejected with an error instead of silently clipping
	// in-flight producers into ClippedDeps. Zero keeps the config-free
	// behavior (DefaultOverlap, no validation) for callers without a
	// config in hand.
	ReorderWindow int
	// Workers sets how many windows a StreamAnalyzer analyzes
	// concurrently. Values <= 1 keep the sequential path; higher values
	// run the pure per-window phase (graph build + DP) of up to Workers
	// windows at once, each on its own goroutine, folding results back in
	// window order so the Report and WindowStats are bit-identical to the
	// sequential run at any worker count. Callers that want machine
	// scaling resolve it themselves (e.g. runtime.GOMAXPROCS); the library
	// default stays sequential. AnalyzeWindowed, the sequential reference,
	// ignores it.
	Workers int
}

// effectiveOverlap resolves the context margin from the options,
// validating a caller-supplied overlap against the config's reorder
// window when one is known.
func (o *WindowOptions) effectiveOverlap() (int, error) {
	if o.Overlap <= 0 {
		return RequiredOverlap(o.ReorderWindow), nil
	}
	if o.ReorderWindow > 0 && o.Overlap < o.ReorderWindow {
		return 0, fmt.Errorf("deg: overlap %d is smaller than the config's reorder window %d; in-flight producers would be clipped (need >= %d, ideally %d)",
			o.Overlap, o.ReorderWindow, o.ReorderWindow, RequiredOverlap(o.ReorderWindow))
	}
	return o.Overlap, nil
}

// WindowStats summarizes a windowed analysis run.
type WindowStats struct {
	// Windows is the number of windows analyzed (1 for whole-trace).
	Windows int
	// PeakEdges and PeakVertices are the largest single-window graph sizes —
	// the working-set measure that replaces the whole-trace graph size.
	PeakEdges    int
	PeakVertices int
	// Defensive-drop totals summed across windows (see Graph).
	DroppedNoStamp  int
	DroppedBackward int
	// ClippedDeps totals dependence annotations whose producer preceded the
	// window's context margin (structural, not corruption).
	ClippedDeps int
}

// Dropped is the total defensively dropped edge count across all windows.
func (s *WindowStats) Dropped() int { return s.DroppedNoStamp + s.DroppedBackward }

// buffers is the scratch state of one graph build and its critical-path
// DP: every slice either would otherwise allocate. Build gives each graph
// fresh buffers; windowed analyses reuse pooled ones window after window,
// so they grow to the largest window seen. The mark array, the Rule-2
// lookup table and the in-edge offsets are cleared per build, the chain
// cursors per DP; the rank and d/parent tables carry stale values by
// design (the build ranks every anchor, the only vertices whose rank is
// read, and longestPath computes every listed vertex's last entry after
// its in-edge tails' last entries).
type buffers struct {
	// Graph build.
	edges   []Edge    // the stored edges: skewed in record order, then virtual
	mark    []uint8   // per local VertexID: markListed|markStart|markEnd|markPipe
	anchors []stamped // the order set: distinct skewed-edge endpoints, first-occurrence order
	rank    []int32   // per anchor VertexID: its rank r in key order
	inOff   []int32   // per anchor rank: stored in-edges at in[inOff[r]:inOff[r+1]]
	in      []inEdge  // stored in-edge records grouped by head, in edge order

	// The anchors' keys, sorted by the build and read by the DP, their
	// virtual-edge targets (the vertices starting a skewed edge) with their
	// sequence numbers and, per instruction, their indices, then the
	// critical-path DP and its per-instruction chain cursors.
	keys, scratch []uint64
	tkeys         []uint64
	tseq          []int32
	near          []nearTargets // per local instruction, offset by rule2Near
	next          []uint8
	d             []int64
	parent        []int32
}

// inEdge is one stored in-edge of an anchor: its tail, its index in
// buffers.edges, and its DP cost, copied so that the DP reads one
// contiguous record.
type inEdge struct {
	from VertexID
	edge int32
	cost int64
}

var bufPool = sync.Pool{New: func() any { return new(buffers) }}

// reset readies the buffers for a build over total vertex slots. The
// stored edge list gets room for 4 edges per instruction (the bundled
// workloads store 2.4–3.4 skewed and virtual edges) and the anchor list
// for 1.5 (they list 1.1–1.3), so a fresh build allocates each about once
// instead of growing it by repeated copies.
func (b *buffers) reset(total int) {
	b.mark = resize(b.mark, total)
	clear(b.mark)
	b.rank = resize(b.rank, total)
	b.edges = slices.Grow(b.edges[:0], total*2/5)
	b.anchors = slices.Grow(b.anchors[:0], total*3/20)
}

// resize returns s resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AnalyzeWindowed is the windowed counterpart of Analyze: it slices the
// trace into fixed-size instruction windows, builds each window's induced
// DEG (plus a backward context margin) into pooled buffers, runs
// Algorithm 1 per window, and stitches the per-window critical paths into
// one Report. Peak memory is O(window), not O(trace), and vertex IDs are
// window-local, so traces are no longer capped by the int32 VertexID
// packing.
//
// Every attributed edge is owned by exactly one window — the one whose
// [lo, hi) instruction range contains the edge's head (To) instruction;
// margin edges appear in a window's graph for path context but are
// attributed only by their owner. A Window of zero, or one covering the
// trace, analyzes the whole trace as a single window with no margin: the
// same build and DP as Analyze, in pooled buffers, with an identical
// result. Across windows the per-resource Contrib matches whole-trace
// analysis within a small tolerance because each window picks its own
// locally longest path (see DESIGN.md §10).
//
// AnalyzeWindowed is the sequential reference for windowed analysis: it
// analyzes one window after another on the caller's goroutine and ignores
// WindowOptions.Workers. A StreamAnalyzer at any worker count must
// reproduce its Report and WindowStats bit for bit.
//
// The returned Report and WindowStats are self-contained; no pooled memory
// escapes.
func AnalyzeWindowed(tr *pipetrace.Trace, opts WindowOptions) (*Report, *WindowStats, error) {
	n := len(tr.Records)
	if n == 0 {
		return nil, nil, fmt.Errorf("deg: empty trace")
	}
	window, overlap := n, 0
	if opts.Window > 0 && opts.Window < n {
		var err error
		if overlap, err = opts.effectiveOverlap(); err != nil {
			return nil, nil, err
		}
		window = opts.Window
	}
	var wa windowAccum
	b := bufPool.Get().(*buffers)
	defer bufPool.Put(b)
	// Window [lo, hi) is the owned span; [base, end) adds the context
	// margin on both sides. The margin extends forward as well as back:
	// the window's path then chooses how to cross the right boundary with
	// knowledge of what follows, instead of greedily maximizing cost up to
	// hi — which is where a context-free local path diverges most from the
	// global one.
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		base, end := max(lo-overlap, 0), min(hi+overlap, n)
		if err := wa.analyzeWindow(tr, base, end, lo, hi, b); err != nil {
			return nil, nil, err
		}
	}
	return wa.finish(tr.Cycles, tr.Span())
}

// windowAccum stitches per-window critical paths into one Report: the
// shared core of AnalyzeWindowed and the StreamAnalyzer, so the two are
// bit-identical by construction at equal window/overlap.
type windowAccum struct {
	rep        Report
	st         WindowStats
	attributed int64
	pathSpan   int64 // the last folded window's critical-path span
}

// windowResult is the pure phase's output for one window: everything
// analyzeWindowPure learned, with no shared state touched. Folding these
// in window order (windowAccum.fold) reconstructs exactly the sums and
// maxes the sequential loop would have produced — every field is an
// integer sum or max, so the fold is order-insensitive in value and the
// in-order pass only pins the iteration for free determinism of Windows
// counting and future non-commutative stats.
type windowResult struct {
	delayByRes [uarch.NumResources]int64
	edgeCount  [uarch.NumResources]int
	attributed int64
	pathSpan   int64

	edges, vertices                              int
	droppedNoStamp, droppedBackward, clippedDeps int
}

// analyzeWindowPure builds the induced DEG over records [base, end) of tr
// (indices into tr.Records), runs Algorithm 1 over it in the caller's
// buffers, and accumulates into res the delay of path edges owned by
// [lo, hi) — the window proper, excluding the context margins. It reads
// the trace and writes only b and res, so distinct windows run
// concurrently given distinct buffers and results.
func analyzeWindowPure(tr *pipetrace.Trace, base, end, lo, hi int, b *buffers, res *windowResult) error {
	var g Graph
	if err := buildInto(&g, tr, base, end, b); err != nil {
		return err
	}
	res.edges = g.NumEdges()
	res.vertices = g.NumVertices
	res.droppedNoStamp = g.DroppedNoStamp
	res.droppedBackward = g.DroppedBackward
	res.clippedDeps = g.ClippedDeps

	sink, _, err := g.longestPath()
	if err != nil {
		return err
	}
	// Walk the path back from the super-sink. An edge whose head lies
	// outside [lo, hi) is a margin edge; its owner window attributes it.
	own0, own1 := Vertex(lo-base, 0), Vertex(hi-base, 0)
	v := sink
	for b.parent[v] != -1 {
		e := g.parentEdge(v)
		v = e.From
		if e.Res == uarch.ResNone || e.To < own0 || e.To >= own1 {
			continue
		}
		res.delayByRes[e.Res] += e.Delay
		res.edgeCount[e.Res]++
		res.attributed += e.Delay
	}
	res.pathSpan = g.time(sink) - g.time(v)
	return nil
}

// fold accumulates one window's pure result into the stitched report.
// Callers fold in window order.
func (wa *windowAccum) fold(res *windowResult) {
	wa.st.Windows++
	wa.st.PeakEdges = max(wa.st.PeakEdges, res.edges)
	wa.st.PeakVertices = max(wa.st.PeakVertices, res.vertices)
	wa.st.DroppedNoStamp += res.droppedNoStamp
	wa.st.DroppedBackward += res.droppedBackward
	wa.st.ClippedDeps += res.clippedDeps
	for r := range res.delayByRes {
		wa.rep.DelayByRes[r] += res.delayByRes[r]
		wa.rep.EdgeCount[r] += res.edgeCount[r]
	}
	wa.attributed += res.attributed
	wa.pathSpan = res.pathSpan
}

// analyzeWindow is the sequential fusion of the pure phase and the fold.
func (wa *windowAccum) analyzeWindow(tr *pipetrace.Trace, base, end, lo, hi int, b *buffers) error {
	var res windowResult
	if err := analyzeWindowPure(tr, base, end, lo, hi, b, &res); err != nil {
		return err
	}
	wa.fold(&res)
	return nil
}

// finish computes the report's ratios over the runtime L: the trace's cycle
// count, falling back to a span, then to 1. A one-window analysis is
// whole-trace analysis and falls back to its critical path's span, as
// Attribute does; a multi-window one to traceSpan, the trace's F1→C span.
func (wa *windowAccum) finish(cycles, traceSpan int64) (*Report, *WindowStats, error) {
	rep, st := &wa.rep, &wa.st
	rep.L = cycles
	if rep.L <= 0 {
		rep.L = traceSpan
		if st.Windows == 1 {
			rep.L = wa.pathSpan
		}
	}
	if rep.L <= 0 {
		rep.L = 1
	}
	for r := range rep.Contrib {
		rep.Contrib[r] = float64(rep.DelayByRes[r]) / float64(rep.L)
	}
	rep.Base = 1 - float64(wa.attributed)/float64(rep.L)
	if rep.Base < 0 {
		rep.Base = 0
		rep.BaseClamped = true
	}
	return rep, st, nil
}
