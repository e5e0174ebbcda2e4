package deg

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// CriticalPath is the output of Algorithm 1: the maximum-cost chain through
// the induced DEG, which serializes the overlapping events that matter for
// the overall runtime.
type CriticalPath struct {
	// Vertices of the path in execution order.
	Vertices []VertexID
	// Edges[i] connects Vertices[i] to Vertices[i+1].
	Edges []Edge
	// Cost is the DP objective: total resource/misprediction delay.
	Cost int64
	// Span is the wall-clock interval the path's edges cover.
	Span int64
}

// stageBits is the width of the stage field of a vertex code, the packing
// seq<<stageBits | stage of a local vertex. Codes order like VertexIDs, but
// their fields come apart with a shift and a mask instead of a divide.
const stageBits = 4

// The stage field must hold every stage.
var _ [1<<stageBits - pipetrace.NumStages]struct{}

func vcode(seq int, st pipetrace.Stage) uint64 { return uint64(seq)<<stageBits | uint64(st) }

// vertexOf converts a vertex code to its VertexID.
func vertexOf(code uint64) VertexID {
	return VertexID(int(code>>stageBits)*pipetrace.NumStages + int(code&(1<<stageBits-1)))
}

// stamped is a local vertex, by code, with its stamp.
type stamped struct {
	code uint64
	t    int64
}

// keyspace packs a graph's vertices into order keys: uint64s whose numeric
// order is the (time, seq, stage) order every edge runs forward in, which
// makes it a topological order. The time field sits above the vertex code
// and holds the stamp's offset from the graph's earliest stamp — or, when
// the graph spans 2³² cycles or more, the stamp's rank among its distinct
// stamps, which keeps keys within 64 bits and leaves the order unchanged.
// Distinct vertices have distinct keys, so every correct sort of them
// yields the same sequence.
type keyspace struct {
	shift uint    // width of the vertex-code field
	tmin  int64   // earliest stamp
	ranks []int64 // the distinct stamps, ascending, when ranked; else nil
	max   uint64  // upper bound of every key
}

// newKeyspace sizes the key layout for a graph over nRecs instructions with
// the listed vertices vs.
func newKeyspace(nRecs int, vs []stamped) keyspace {
	k := keyspace{shift: uint(bits.Len(uint(nRecs-1))) + stageBits}
	var span uint64
	if len(vs) > 0 {
		tmin, tmax := vs[0].t, vs[0].t
		for _, v := range vs[1:] {
			tmin, tmax = min(tmin, v.t), max(tmax, v.t)
		}
		k.tmin, span = tmin, uint64(tmax)-uint64(tmin)
	}
	if span >= 1<<32 {
		// Cold path: rank the stamps with a comparison sort.
		k.ranks = make([]int64, len(vs))
		for i, v := range vs {
			k.ranks[i] = v.t
		}
		slices.Sort(k.ranks)
		k.ranks = slices.Compact(k.ranks)
		span = uint64(len(k.ranks) - 1)
	}
	k.max = span<<k.shift | (1<<k.shift - 1)
	return k
}

func (k *keyspace) key(v stamped) uint64 {
	off := uint64(v.t) - uint64(k.tmin)
	if k.ranks != nil {
		i, _ := slices.BinarySearch(k.ranks, v.t)
		off = uint64(i)
	}
	return off<<k.shift | v.code
}

// code and time recover a key's vertex code and stamp.
func (k *keyspace) code(key uint64) uint64 { return key & (1<<k.shift - 1) }

func (k *keyspace) time(key uint64) int64 {
	if k.ranks != nil {
		return k.ranks[key>>k.shift]
	}
	return k.tmin + int64(key>>k.shift)
}

// virtualTargets picks one anchor's virtual-edge targets from the sorted
// target keys tkeys, given the anchor's own order key ka. Rule 1's target,
// r1, is the first one ordered after the anchor (len(tkeys) if none is).
// Rule 2's, r2, is the one closest to the anchor in instruction sequence
// among the scan targets from r1 on, the earliest on ties.
func (k *keyspace) virtualTargets(tkeys []uint64, ka uint64, scan int) (r1, r2 int) {
	lo, hi := 0, len(tkeys)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); tkeys[m] <= ka {
			lo = m + 1
		} else {
			hi = m
		}
	}
	aseq := k.code(ka) >> stageBits
	r2, best := lo, ^uint64(0)
	for i := lo; i < min(lo+scan, len(tkeys)); i++ {
		d := k.code(tkeys[i])>>stageBits - aseq
		if int64(d) < 0 {
			d = -d
		}
		if d < best {
			r2, best = i, d
		}
	}
	return lo, r2
}

// sortKeys fills the buffers' key slice with the order keys of vs,
// ascending.
func (b *buffers) sortKeys(k *keyspace, vs []stamped) []uint64 {
	b.keys = resize(b.keys, len(vs))
	for i, v := range vs {
		b.keys[i] = k.key(v)
	}
	b.scratch = resize(b.scratch, len(vs))
	radixSort(b.keys, b.scratch, k.max)
	return b.keys
}

// radixSort sorts keys ascending by least-significant-digit radix sort over
// bytes, one pass per byte of maxKey, the bound on every key, using scratch
// (at least as long as keys). It needs 256 counters, whatever the keys'
// range.
func radixSort(keys, scratch []uint64, maxKey uint64) {
	src, dst := keys, scratch[:len(keys)]
	for shift := uint(0); shift < 64 && maxKey>>shift != 0; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		if len(src) == 0 || count[byte(src[0]>>shift)] == len(src) {
			continue // every key has this digit: the pass would move nothing
		}
		pos := 0
		for d, c := range count {
			count[d], pos = pos, pos+c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if len(keys) > 0 && &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// longestPath is Algorithm 1's dynamic program: it visits the vertices in
// topological order, fills the buffers' d/parent tables, and returns the
// super-sink — the first vertex in that order with the maximum path cost —
// and that cost. Vertices without predecessors start at cost zero (line 8
// of the paper's pseudocode acts as a virtual super-source), and a vertex's
// parent is its lowest-index in-edge achieving the maximum. The d/parent
// tables need no reinitialisation: every listed vertex's entry is written
// before any read.
func (g *Graph) longestPath() (sink VertexID, cost int64, err error) {
	if len(g.Edges) == 0 {
		return 0, 0, fmt.Errorf("deg: graph has no edges")
	}
	b := g.b
	b.d, b.parent = resize(b.d, len(b.mark)), resize(b.parent, len(b.mark))
	d, parent := b.d, b.parent
	cost = -1
	for _, k := range b.sortKeys(&g.ks, b.verts) {
		v := vertexOf(g.ks.code(k))
		var dv int64
		pe := int32(-1) // incoming edge index, -1 none
		for _, ei := range b.inIdx[b.inOff[v]:b.inOff[v+1]] {
			e := &g.Edges[ei]
			if cand := d[e.From] + e.Cost; cand > dv || (cand == dv && pe < 0) {
				dv, pe = cand, ei
			}
		}
		d[v], parent[v] = dv, pe
		if dv > cost {
			sink, cost = v, dv
		}
	}
	return sink, cost, nil
}

// Construct runs Algorithm 1 (dynamic-programming longest path in
// topological order) and reconstructs the path backwards from the
// maximum-cost vertex, which acts as the virtual super-sink. Runtime not
// covered by the path telescopes into the report's Base share. Construct
// reuses the graph's scratch buffers, so it is not safe for concurrent use
// on one Graph; the returned path is the caller's.
func (g *Graph) Construct() (*CriticalPath, error) {
	sink, cost, err := g.longestPath()
	if err != nil {
		return nil, err
	}
	parent := g.b.parent
	n := 1
	for v := sink; parent[v] >= 0; v = g.Edges[parent[v]].From {
		n++
	}
	cp := &CriticalPath{Vertices: make([]VertexID, n), Cost: cost}
	if n > 1 {
		cp.Edges = make([]Edge, n-1)
	}
	v := sink
	for i := n - 1; i > 0; i-- {
		cp.Vertices[i] = v
		cp.Edges[i-1] = g.Edges[parent[v]]
		v = cp.Edges[i-1].From
	}
	cp.Vertices[0] = v
	cp.Span = g.time(sink) - g.time(v)
	return cp, nil
}

// Report is the bottleneck analysis output: each resource's contribution to
// the total runtime (Equation 1). Contributions are fractions of the
// critical path length L (the simulated runtime); Base is the share not
// attributed to any reassignable resource (pipeline progress, virtual-edge
// gaps, and the path's uncovered prefix/suffix).
type Report struct {
	L       int64 // total runtime in cycles
	Contrib [uarch.NumResources]float64
	// DelayByRes holds the absolute attributed cycles per resource.
	DelayByRes [uarch.NumResources]int64
	Base       float64
	// BaseClamped records that the raw Base came out negative (attributed
	// delay exceeded L, e.g. a truncated trace whose Cycles undercounts the
	// path) and was clamped to zero instead of being reported as a silently
	// negative fraction.
	BaseClamped bool
	// EdgeCount counts critical-path edges attributed per resource.
	EdgeCount [uarch.NumResources]int
}

// Analyze builds the graph, constructs the critical path, and attributes
// every path edge's delay to its resource (Equation 1).
func Analyze(tr *pipetrace.Trace, opts Options) (*Report, *Graph, *CriticalPath, error) {
	g, err := Build(tr, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cp, err := g.Construct()
	if err != nil {
		return nil, nil, nil, err
	}
	rep := Attribute(tr, cp)
	return rep, g, cp, nil
}

// Attribute computes Equation 1 over a constructed critical path.
//
// When the trace carries no cycle count (tr.Cycles <= 0) the denominator
// falls back to the critical path's wall-clock Span rather than 1 — an L of
// one cycle would report every resource at thousands of percent. If the
// attributed delay still exceeds L (truncated traces whose Cycles
// undercounts the path), Base is clamped to zero and the report flags it
// via BaseClamped instead of going silently negative.
func Attribute(tr *pipetrace.Trace, cp *CriticalPath) *Report {
	rep := &Report{L: tr.Cycles}
	if rep.L <= 0 {
		rep.L = cp.Span
	}
	if rep.L <= 0 {
		rep.L = 1
	}
	var attributed int64
	for _, e := range cp.Edges {
		if e.Res == uarch.ResNone {
			continue
		}
		rep.DelayByRes[e.Res] += e.Delay
		rep.EdgeCount[e.Res]++
		attributed += e.Delay
	}
	for r := range rep.Contrib {
		rep.Contrib[r] = float64(rep.DelayByRes[r]) / float64(rep.L)
	}
	rep.Base = 1 - float64(attributed)/float64(rep.L)
	if rep.Base < 0 {
		rep.Base = 0
		rep.BaseClamped = true
	}
	return rep
}

// Top returns the resources ordered by decreasing contribution, skipping
// zero contributors.
func (r *Report) Top() []uarch.Resource {
	var out []uarch.Resource
	for _, res := range uarch.Resources() {
		if r.Contrib[res] > 0 {
			out = append(out, res)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return r.Contrib[out[i]] > r.Contrib[out[j]]
	})
	return out
}

// Merge computes the weighted average report across workloads
// (Equation 2). Weights must match reports in length; they are normalised
// internally.
//
// Contrib is exactly Equation 2: the weighted mean of each workload's
// contribution *fractions* Σᵢ wᵢ·(Delayᵢ[r]/Lᵢ). The absolute fields L and
// DelayByRes are weighted means of the inputs' absolute cycles (rounded to
// the nearest cycle), so a merge of identical reports reproduces the input
// rather than summing it. Because a mean of ratios is not the ratio of
// means, Contrib[r] equals DelayByRes[r]/L only when every input has the
// same L; in general the two views answer different questions (per-workload
// share of runtime versus cycles on a reference-length run) and Contrib is
// the one the explorer steers on. EdgeCount stays a plain sum — it is a
// diagnostic tally of critical-path edges across all inputs.
func Merge(reports []*Report, weights []float64) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("deg: no reports to merge")
	}
	if weights != nil && len(weights) != len(reports) {
		return nil, fmt.Errorf("deg: %d weights for %d reports", len(weights), len(reports))
	}
	var wsum float64
	if weights == nil {
		weights = make([]float64, len(reports))
		for i := range weights {
			weights[i] = 1
		}
	}
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("deg: negative weight %v", w)
		}
		wsum += w
	}
	if wsum == 0 {
		return nil, fmt.Errorf("deg: zero total weight")
	}
	out := &Report{}
	var lMean float64
	var delayMean [uarch.NumResources]float64
	for i, rep := range reports {
		w := weights[i] / wsum
		lMean += w * float64(rep.L)
		out.Base += w * rep.Base
		out.BaseClamped = out.BaseClamped || (w > 0 && rep.BaseClamped)
		for r := range rep.Contrib {
			out.Contrib[r] += w * rep.Contrib[r]
			delayMean[r] += w * float64(rep.DelayByRes[r])
			out.EdgeCount[r] += rep.EdgeCount[r]
		}
	}
	out.L = int64(lMean + 0.5)
	for r := range delayMean {
		out.DelayByRes[r] = int64(delayMean[r] + 0.5)
	}
	return out, nil
}

// String renders the report as the paper's bottleneck analysis table.
func (r *Report) String() string {
	clamp := ""
	if r.BaseClamped {
		clamp = " [base clamped: attributed delay exceeded L]"
	}
	out := fmt.Sprintf("bottleneck report (L=%d cycles, base=%.1f%%%s)\n", r.L, 100*r.Base, clamp)
	for _, res := range r.Top() {
		out += fmt.Sprintf("  %-12s %6.2f%%  (%d edges, %d cycles)\n",
			res, 100*r.Contrib[res], r.EdgeCount[res], r.DelayByRes[res])
	}
	return out
}
