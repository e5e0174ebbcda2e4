package deg

import (
	"fmt"
	"math"
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

// keyspace packs a graph's anchors, the DP's order set, into order keys:
// uint64s whose numeric order is the (time, seq, stage) order every edge
// runs forward in. The time field sits above the vertex code and holds the
// stamp's offset from the earliest anchor stamp — or, when they span 2³²
// cycles or more, the stamp's rank among its distinct stamps, which keeps
// keys within 64 bits and leaves the order unchanged.
// Distinct vertices have distinct keys, so every correct sort of them
// yields the same sequence.
type keyspace struct {
	shift uint    // width of the vertex-code field
	tmin  int64   // earliest stamp
	ranks []int64 // the distinct stamps, ascending, when ranked; else nil
	max   uint64  // upper bound of every key
}

// newKeyspace sizes the key layout for a graph over nRecs instructions
// with the anchors vs.
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

// virtualTargets filters the sorted anchor keys down to the virtual-edge
// targets, the anchors starting a skewed edge, into tkeys, with their
// sequence numbers in tseq for Rule 2. It records at every anchor v its
// rank in key order, b.rank[v], and Rule 1's target, rule1[v]: the index
// of the first target ordered after v (len(tkeys) if none is), which is
// the count of targets ordered up to v itself — so Rule 1 needs no search.
// Under each instruction it records its targets' indices for Rule 2's
// lookup, in b.near.
func (b *buffers) virtualTargets(k *keyspace, keys []uint64, rule1 []int32) {
	b.tkeys, b.tseq = resize(b.tkeys, len(keys))[:0], resize(b.tseq, len(keys))[:0]
	b.near = resize(b.near, len(b.mark)/pipetrace.NumStages+2*rule2Near)
	clear(b.near)
	for r, key := range keys {
		c := k.code(key)
		v := vertexOf(c)
		if b.mark[v]&markStart != 0 {
			b.tkeys = append(b.tkeys, key)
			b.tseq = append(b.tseq, int32(c>>stageBits))
			b.near[c>>stageBits+rule2Near][nearSlot(c)] = uint32(len(b.tkeys))
		}
		rule1[v], b.rank[v] = int32(len(b.tkeys)), int32(r)
	}
}

// rule2Near is how far, in instructions on either side of the anchor,
// Rule 2 looks its target up before it scans.
const rule2Near = 2

// nearTargets holds one instruction's virtual-edge targets for Rule 2's
// lookup: per stage that can start a skewed edge (R, I and P, in that
// order), the target's index in tkeys plus one, or zero for none.
type nearTargets [3]uint32

// nearSlot is the nearTargets slot of a target's vertex code: a target
// starts a resource edge at R, an FU, port or data edge at I, or a
// misprediction edge at P.
func nearSlot(code uint64) uint64 {
	return (code&(1<<stageBits-1) - uint64(pipetrace.SR)) >> 1
}

// rule2 picks Rule 2's target for an anchor of local instruction aseq whose
// Rule-1 target is r1: among the targets tkeys[r1 : r1+maxVirtualScan], the
// one closest to the anchor in instruction sequence, the earliest on ties.
// It looks up the instructions at distance 0, then 1, up to rule2Near: the
// first distance with a target in that range holds the answer, at its
// lowest index. Only an anchor with no such target that near scans.
func (b *buffers) rule2(r1 int, aseq int32) int {
	near := b.near[aseq : aseq+2*rule2Near+1] // instructions aseq-rule2Near ... aseq+rule2Near
	// first is the lowest in-range index in e, less r1, or at least
	// maxVirtualScan when e has none: an index below r1, and an empty slot,
	// wrap around.
	base := uint32(r1) + 1
	first := func(e *nearTargets) uint32 { return min(e[0]-base, e[1]-base, e[2]-base) }
	if m := first(&near[rule2Near]); m < maxVirtualScan {
		return r1 + int(m)
	}
	for k := 1; k <= rule2Near; k++ {
		if m := min(first(&near[rule2Near-k]), first(&near[rule2Near+k])); m < maxVirtualScan {
			return r1 + int(m)
		}
	}
	return rule2Scan(b.tseq, r1, aseq, rule2Near+1)
}

// rule2Scan scans the targets tseq[r1 : r1+maxVirtualScan] for the one
// closest to instruction aseq, the earliest on ties. None lies nearer than
// floor, so the scan stops at the first at distance floor.
func rule2Scan(tseq []int32, r1 int, aseq, floor int32) int {
	r2, best := r1, int32(math.MaxInt32)
	for i, s := range tseq[r1:min(r1+maxVirtualScan, len(tseq))] {
		d := s - aseq
		d = (d ^ d>>31) - d>>31 // |d|, without a branch
		if d < best {
			r2, best = r1+i, d
		}
		if best == floor {
			break
		}
	}
	return r2
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
// a topological order, fills the buffers' d/parent tables, and returns the
// super-sink and its path cost. Vertices without predecessors start at cost
// zero (line 8 of the paper's pseudocode acts as a virtual super-source),
// and a vertex's parent is its lowest-index in-edge achieving the maximum.
// The d/parent tables need no reinitialisation: every listed vertex's last
// entry is computed after its in-edge tails' last entries.
//
// The order visits the anchors in key order and walks every other listed
// vertex along its instruction's chain: just before an anchor of its
// instruction at a higher stage, or after the last anchor of all. Such a
// vertex has one in-edge, the pipeline edge from its instruction's previous
// present stage. A backward stamp can send an instruction's anchors out of
// the sort in a different stage order; the cursor then moves back, and a
// chain walked before the anchor below it is walked again after it
// (DESIGN.md §19). The super-sink is the first vertex in (stamp, VertexID)
// order with the maximum cost: the first anchor in key order reaching a
// positive maximum, or else the earliest listed vertex.
func (g *Graph) longestPath() (sink VertexID, cost int64, err error) {
	if g.NumEdges() == 0 {
		return 0, 0, fmt.Errorf("deg: graph has no edges")
	}
	b := g.b
	b.d = resize(b.d, len(b.mark)) // the build sized parent
	b.next = resize(b.next, len(b.mark)/pipetrace.NumStages)
	clear(b.next)
	mark, next, off := b.mark, b.next, b.inOff
	sink = -1
	for r, k := range b.keys {
		c := g.ks.code(k)
		seq, st := int(c>>stageBits), uint8(c&(1<<stageBits-1))
		v0 := VertexID(seq * pipetrace.NumStages)
		for s := next[seq]; s < st; s++ {
			if u := v0 + VertexID(s); mark[u]&^markPipe == markListed { // listed, not an anchor
				b.d[u], b.parent[u] = b.pipeIn(u)
			}
		}
		next[seq] = st + 1
		if dv := b.relax(v0+VertexID(st), b.in[off[r]:off[r+1]]); dv > cost {
			sink, cost = v0+VertexID(st), dv
		}
	}
	for seq, s := range next {
		v0 := VertexID(seq * pipetrace.NumStages)
		for ; int(s) < pipetrace.NumStages; s++ {
			if u := v0 + VertexID(s); mark[u]&^markPipe == markListed { // listed, not an anchor
				b.d[u], b.parent[u] = b.pipeIn(u)
			}
		}
	}
	if sink < 0 {
		sink = g.earliest()
	}
	return sink, cost, nil
}

// relax sets vertex v's path cost and parent from its in-edges, whose tails
// the DP has already visited, and returns the cost. The pipeline in-edge,
// when v has one, has the lowest edge index, so it comes first; in holds
// the stored in-edges, in edge order (none unless v is an anchor). The
// parent is -1 for none, -2 for the pipeline edge, or a stored edge's
// index.
func (b *buffers) relax(v VertexID, in []inEdge) int64 {
	dv, pe := b.pipeIn(v)
	for _, r := range in {
		if cand := b.d[r.from] + r.cost; cand > dv || (cand == dv && pe == -1) {
			dv, pe = cand, r.edge
		}
	}
	b.d[v], b.parent[v] = dv, pe
	return dv
}

// pipeIn returns the path cost and parent that vertex v's pipeline
// in-edge gives it: the cost of its tail and -2 when v is marked
// markPipe, else zero and -1. A listed vertex that is not an anchor has no
// other in-edge, so the DP's chain walk relaxes it with pipeIn alone,
// which, unlike relax, inlines there.
func (b *buffers) pipeIn(v VertexID) (int64, int32) {
	if b.mark[v]&markPipe != 0 {
		return b.d[b.pipeTail(v)], -2
	}
	return 0, -1
}

// earliest returns the listed vertex first in (stamp, VertexID) order: the
// super-sink of a graph in which no path has a positive cost.
func (g *Graph) earliest() VertexID {
	best, bt := VertexID(-1), int64(0)
	for v, m := range g.b.mark {
		if m == 0 {
			continue
		}
		if t := g.time(VertexID(v)); best < 0 || t < bt {
			best, bt = VertexID(v), t
		}
	}
	return best
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
	for v := sink; parent[v] != -1; v = g.parentEdge(v).From {
		n++
	}
	cp := &CriticalPath{Vertices: make([]VertexID, n), Cost: cost}
	if n > 1 {
		cp.Edges = make([]Edge, n-1)
	}
	v := sink
	for i := n - 1; i > 0; i-- {
		cp.Vertices[i] = v
		cp.Edges[i-1] = g.parentEdge(v)
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
	res := windowResult{pathSpan: cp.Span}
	for i := range cp.Edges {
		res.charge(&cp.Edges[i])
	}
	var wa windowAccum
	wa.fold(&res)
	rep, _, _ := wa.finish(tr.Cycles, cp.Span) // finish cannot fail
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
