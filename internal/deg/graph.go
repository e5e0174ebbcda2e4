// Package deg implements the paper's new dynamic event-dependence graph
// (DEG) formulation of microexecution, the induced DEG with virtual edges,
// the dynamic-programming critical-path construction (Algorithm 1), and the
// per-resource bottleneck contribution report (Equations 1 and 2).
//
// Vertices are pipeline events of committed instructions placed on the real
// time axis (each vertex is (instruction sequence, stage) with the cycle
// stamp the simulator observed). Edges follow Table 2 of the paper:
//
//   - Pipeline dependence (horizontal): F1→F2→F→DC→R→DP→I→(M)→P→C inside
//     one instruction.
//   - Misprediction dependence: P(i)→F1(j), where j is the first
//     instruction fetched after branch i's misprediction resolved.
//   - Hardware resource dependence: R(i)→R(j) when instruction j stalled at
//     rename for an entry of ROB/IQ/LQ/SQ/IntRF/FpRF that i released, per
//     the simulator's scoreboard; and I(i)→I(j) for functional units and
//     cache read/write ports.
//   - True data dependence: I(i)→I(j) for read-after-write producers that
//     were not ready when j entered the issue window.
//
// Every edge carries its actual delay (the time interval between its
// endpoints — the events' timing information the paper embeds), and a DP
// cost: resource and misprediction edges cost their delay, all other edges
// cost zero (Section 4.2's cost assignment). The induced DEG adds zero-cost
// virtual edges connecting "skewed" edges under Rule 1 (closest in time)
// and Rule 2 (closest in instruction sequence) so that consecutive resource
// usage episodes chain into one critical path.
package deg

import (
	"fmt"
	"math"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// EdgeKind classifies DEG edges (Table 2 plus the induced DEG's virtual
// edges).
type EdgeKind uint8

const (
	EdgePipeline EdgeKind = iota
	EdgeMispredict
	EdgeResource // rename-to-rename hardware resource usage
	EdgeFU       // issue-to-issue functional unit / port usage
	EdgeData     // true data dependence
	EdgeVirtual
	numEdgeKinds
)

// NumEdgeKinds is the number of edge classes.
const NumEdgeKinds = int(numEdgeKinds)

var edgeKindNames = [...]string{
	EdgePipeline:   "pipeline",
	EdgeMispredict: "mispredict",
	EdgeResource:   "resource",
	EdgeFU:         "fu",
	EdgeData:       "data",
	EdgeVirtual:    "virtual",
}

func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return fmt.Sprintf("EdgeKind(%d)", uint8(k))
}

// cacheHitLatency is the pipelined L1 hit latency; access latencies above
// it indicate misses and are attributed to the cache as a bottleneck.
const cacheHitLatency = 2

// VertexID addresses a vertex as seq*NumStages + stage.
type VertexID int32

// Vertex returns the ID for (seq, stage).
func Vertex(seq int, st pipetrace.Stage) VertexID {
	return VertexID(seq*pipetrace.NumStages + int(st))
}

// Seq extracts the instruction sequence number.
func (v VertexID) Seq() int { return int(v) / pipetrace.NumStages }

// Stage extracts the pipeline stage.
func (v VertexID) Stage() pipetrace.Stage {
	return pipetrace.Stage(int(v) % pipetrace.NumStages)
}

// Edge is one DEG dependence.
type Edge struct {
	From, To VertexID
	Kind     EdgeKind
	Res      uarch.Resource // attribution target (ResNone for base edges)
	Delay    int64          // actual time interval t(To) - t(From)
	Cost     int64          // DP cost (Section 4.2)
}

// Graph is the induced DEG of one microexecution — or, for the windowed
// analyzer (AnalyzeWindowed), of one window of it, with vertex IDs local to
// the window so arbitrarily long traces stay within the int32 packing.
type Graph struct {
	Trace *pipetrace.Trace

	// base is the global sequence number of local vertex seq 0. Whole-trace
	// graphs have base 0.
	base int

	// b holds the marks, the sorted anchors, the stored edges, the in-edge
	// records and the DP tables: fresh buffers the graph owns after Build,
	// pooled ones that a windowed analysis reuses for its next window. ks
	// keys the anchors, the order set of the DP (DESIGN.md §19). Pipeline
	// edges are not stored: a mark on the head stands for each (§20).
	b  *buffers
	ks keyspace

	// Statistics.
	NumVertices int
	EdgesByKind [NumEdgeKinds]int
	// SkewedAnchors counts the distinct (vertex, start) anchors feeding the
	// virtual-edge rules.
	SkewedAnchors int

	// Defensive-drop counters: edges the builder refused to create. On a trace
	// that passes pipetrace validation both must stay zero (the simulator
	// invariants test asserts this); non-zero values indicate trace
	// corruption and are surfaced through the evaluator's telemetry rather
	// than vanishing silently.
	DroppedNoStamp  int // an endpoint's stage never happened
	DroppedBackward int // the edge would run backward in time
	// ClippedDeps counts dependence annotations whose producer precedes the
	// window's context base. Whole-trace builds always see zero; windowed
	// builds clip the rare producer older than the overlap margin.
	ClippedDeps int
}

// Dropped is the total defensively dropped edge count (trace-corruption
// indicator; window-context clipping is structural and counted separately).
func (g *Graph) Dropped() int { return g.DroppedNoStamp + g.DroppedBackward }

// time returns the stamp of a vertex.
func (g *Graph) time(v VertexID) int64 {
	return g.Trace.Records[g.base+v.Seq()].Stamp[v.Stage()]
}

// Options is the options argument of Build, Analyze and the windowed
// analyzers. It has no fields. It stays only because those signatures take
// it and callers outside this module (the archbench replay in bench/) pass
// Options{}.
type Options struct{}

// maxVirtualScan bounds Rule 2's candidate scan: the targets it compares
// start at Rule 1's and number at most this many.
const maxVirtualScan = 64

// Bits of buffers.mark, per local vertex.
const (
	markListed uint8 = 1 << iota // an edge endpoint, counted in NumVertices
	markStart                    // starts a skewed edge: a virtual-edge target
	markEnd                      // ends a skewed edge
	markPipe                     // heads a kept pipeline edge, from its nearest listed stage below
)

// Build constructs the induced DEG from a pipeline trace, in fresh buffers
// the graph owns.
func Build(tr *pipetrace.Trace, opts Options) (*Graph, error) {
	g := &Graph{}
	if err := buildInto(g, tr, 0, len(tr.Records), new(buffers)); err != nil {
		return nil, err
	}
	return g, nil
}

// builder is the state of one graph build over recs, the build range's
// records, indexed by local sequence number.
type builder struct {
	g    *Graph
	b    *buffers
	recs []pipetrace.Record
}

// buildInto constructs the induced DEG over records [base, end) into the
// zeroed graph g, with vertex IDs local to base, using the buffers b: the
// graph is valid until b's next build. Dependence annotations reaching back
// before base are clipped and counted (whole-trace builds pass base 0 and
// never clip).
func buildInto(g *Graph, tr *pipetrace.Trace, base, end int, b *buffers) error {
	nRecs := end - base
	if nRecs <= 0 {
		return fmt.Errorf("deg: empty trace")
	}
	if nRecs > (math.MaxInt32-pipetrace.NumStages+1)/pipetrace.NumStages {
		// VertexID is an int32 of seq*NumStages+stage; IDs are local to the
		// build range, so only this range — not the whole trace — must fit.
		return fmt.Errorf("deg: trace of %d instructions exceeds the %d-instruction graph limit",
			nRecs, (math.MaxInt32-pipetrace.NumStages+1)/pipetrace.NumStages)
	}
	g.Trace, g.base, g.b = tr, base, b
	b.reset(nRecs * pipetrace.NumStages)
	bd := builder{g: g, b: b, recs: tr.Records[base:end]}

	// Producer annotations are global sequence numbers; records sit at
	// index Seq - seq0 in tr.Records. Batch traces have seq0 == 0 (index
	// equals sequence number); a stream analyzer's window copy starts at
	// its window's backward margin.
	seq0 := tr.Records[0].Seq

	// clip drops a producer annotation that precedes the build range;
	// toLocal maps a surviving global producer sequence to the build
	// range's local vertex sequence.
	clip := func(producer int) bool {
		if producer-seq0 >= base {
			return false
		}
		g.ClippedDeps++
		return true
	}
	toLocal := func(producer int) int { return producer - seq0 - base }

	for i := range bd.recs {
		rec := &bd.recs[i]
		// Horizontal pipeline chain.
		bd.chain(i)

		// Hardware resource dependencies (rename to rename).
		for _, rd := range rec.ResourceDeps() {
			if p := int(rd.Producer); !clip(p) {
				bd.skewed(toLocal(p), pipetrace.SR, i, pipetrace.SR, EdgeResource, rd.Resource)
			}
		}
		// Functional unit and port contention (issue to issue).
		if rec.FUProducer >= 0 && !clip(rec.FUProducer) {
			bd.skewed(toLocal(rec.FUProducer), pipetrace.SI, i, pipetrace.SI, EdgeFU, rec.FURes)
		}
		if rec.PortProducer >= 0 && !clip(rec.PortProducer) {
			bd.skewed(toLocal(rec.PortProducer), pipetrace.SI, i, pipetrace.SI, EdgeFU, uarch.ResRdWrPort)
		}
		// True data dependence.
		for _, p := range rec.DataProducers() {
			if p := int(p); !clip(p) {
				bd.skewed(toLocal(p), pipetrace.SI, i, pipetrace.SI, EdgeData, uarch.ResRawDep)
			}
		}
		// Misprediction dependence.
		if rec.MispredictFrom >= 0 && !clip(rec.MispredictFrom) {
			bd.skewed(toLocal(rec.MispredictFrom), pipetrace.SP, i, pipetrace.SF1, EdgeMispredict, uarch.ResBranchPred)
		}
	}

	// The order set: the skewed-edge anchors, which every edge other than
	// a pipeline edge runs between. One radix sort orders it, by the
	// (time, seq, stage) keys every edge runs forward in; the DP walks each
	// remaining vertex along its instruction's chain (DESIGN.md §19).
	g.ks = newKeyspace(nRecs, b.anchors)
	keys := b.sortKeys(&g.ks, b.anchors)

	// Induced DEG: virtual edges. Candidate targets are skewed-edge start
	// vertices; every anchor connects to (Rule 1) the target whose time is
	// closest after its own, and (Rule 2) the target whose instruction
	// sequence is closest after its own. Every target is ordered strictly
	// after its anchor, so no virtual edge is a self-loop or runs backward.
	// The parent table holds each anchor's Rule-1 target until the DP
	// overwrites it.
	b.parent = resize(b.parent, len(b.mark))
	b.virtualTargets(&g.ks, keys, b.parent)
	for _, a := range b.anchors {
		from := vertexOf(a.code)
		r1 := int(b.parent[from])
		if r1 == len(b.tkeys) {
			continue
		}
		bd.virtual(from, a.t, b.tkeys[r1])
		if r2 := b.rule2(r1, int32(a.code>>stageBits)); r2 != r1 {
			bd.virtual(from, a.t, b.tkeys[r2])
		}
	}

	// Index the stored edges' in-edges as CSR records, filled in edge-index
	// order (the DP's lowest-index parent tie-break reads them in that
	// order), and tally statistics. Every stored edge heads an anchor, so
	// the index is keyed by the anchor's rank r in key order: counting into
	// off[r+2] and filling through off[r+1] leaves its in-edges at
	// in[off[r]:off[r+1]].
	off := resize(b.inOff, len(keys)+2)
	clear(off)
	for i := range b.edges {
		off[b.rank[b.edges[i].To]+2]++
		g.EdgesByKind[b.edges[i].Kind]++
	}
	for r := 2; r < len(off); r++ {
		off[r] += off[r-1]
	}
	b.in = resize(b.in, len(b.edges))
	for i := range b.edges {
		e := &b.edges[i]
		r := b.rank[e.To]
		b.in[off[r+1]] = inEdge{from: e.From, edge: int32(i), cost: e.Cost}
		off[r+1]++
	}
	b.inOff = off
	return nil
}

// chain adds the pipeline edges of local instruction seq, one hop from
// each present stage to the next, applying keep's drop rules inline: a hop
// whose tail, F1, never happened or that would run backward is dropped and
// counted. A kept edge is not stored: both endpoints are listed, the head
// marked markPipe, and the edge counted. Its tail is the head's nearest
// listed stage below, and pipeEdge rebuilds it from the record.
func (bd *builder) chain(seq int) {
	st := &bd.recs[seq].Stamp
	mark := (*[pipetrace.NumStages]uint8)(bd.b.mark[Vertex(seq, 0):])
	var kept, listed int
	prev, df := int(pipetrace.SF1), st[pipetrace.SF1] // a hop's tail and its stamp
	for s := prev + 1; s < pipetrace.NumStages; s++ {
		t := st[s]
		if t == pipetrace.NoStamp {
			continue
		}
		switch {
		case df == pipetrace.NoStamp:
			bd.g.DroppedNoStamp++
		case t < df:
			bd.g.DroppedBackward++ // defensive: never create a backward edge
		default:
			// List the tail and the head, counting each on first touch.
			m := mark[prev]
			mark[prev] = m | markListed
			listed += int(^m & markListed)
			m = mark[s]
			mark[s] = m | markListed | markPipe
			listed += int(^m & markListed)
			kept++
		}
		prev, df = s, t
	}
	bd.g.NumVertices += listed
	bd.g.EdgesByKind[EdgePipeline] += kept
}

// pipeRes attributes the pipeline hop of rec from stage prev to s. The I$
// response edge attributes to ICache and the load access edge to DCache;
// remaining hops are unattributed pipeline progress.
func pipeRes(rec *pipetrace.Record, prev, s pipetrace.Stage) uarch.Resource {
	switch {
	case prev == pipetrace.SF1 && s == pipetrace.SF2:
		// The pipelined hit latency is intrinsic; only the miss portion
		// marks the I$ as a bottleneck.
		if rec.ICacheLat > cacheHitLatency {
			return uarch.ResICache
		}
	case prev == pipetrace.SM && s == pipetrace.SP:
		if rec.DCacheLat > cacheHitLatency {
			return uarch.ResDCache
		}
	case prev == pipetrace.SF2 && s == pipetrace.SF,
		prev == pipetrace.SF && s == pipetrace.SDC,
		prev == pipetrace.SR && s == pipetrace.SDP:
		// Fetch-buffer drain, fetch-queue and dispatch delays: front-end
		// width/buffer pressure.
		return uarch.ResFrontend
	}
	return uarch.ResNone
}

// keep reports whether an edge from stamp df to stamp dt is kept. It drops,
// and counts, an edge an endpoint of which never happened or which would
// run backward in time.
func (bd *builder) keep(df, dt int64) bool {
	if df == pipetrace.NoStamp || dt == pipetrace.NoStamp {
		bd.g.DroppedNoStamp++
		return false
	}
	if dt < df {
		bd.g.DroppedBackward++
		return false // defensive: never create a backward edge
	}
	return true
}

// edge stores the edge from local vertex (fs, fst) to (ts, tst), listing
// both endpoints, unless keep drops it. It reports whether the edge was
// stored.
func (bd *builder) edge(fs int, fst pipetrace.Stage, ts int, tst pipetrace.Stage, kind EdgeKind, res uarch.Resource) bool {
	df, dt := bd.recs[fs].Stamp[fst], bd.recs[ts].Stamp[tst]
	if !bd.keep(df, dt) {
		return false
	}
	delay := dt - df
	var cost int64
	if kind == EdgeResource || kind == EdgeFU || kind == EdgeMispredict {
		cost = delay
	}
	bd.b.edges = append(bd.b.edges, Edge{
		From: bd.list(fs, fst), To: bd.list(ts, tst),
		Kind: kind, Res: res, Delay: delay, Cost: cost,
	})
	return true
}

// list returns local vertex (seq, st), marking it listed and counting it on
// first touch.
func (bd *builder) list(seq int, st pipetrace.Stage) VertexID {
	v := Vertex(seq, st)
	if bd.b.mark[v]&markListed == 0 {
		bd.b.mark[v] |= markListed
		bd.g.NumVertices++
	}
	return v
}

// skewed adds a skewed edge and registers its endpoints as virtual-edge
// anchors.
func (bd *builder) skewed(fs int, fst pipetrace.Stage, ts int, tst pipetrace.Stage, kind EdgeKind, res uarch.Resource) {
	if bd.edge(fs, fst, ts, tst, kind, res) {
		bd.anchor(fs, fst, markStart)
		bd.anchor(ts, tst, markEnd)
	}
}

// anchor registers local vertex (seq, st) in one anchor role. Roles are
// deduplicated per vertex — SkewedAnchors counts distinct (vertex, role)
// pairs, and a vertex shared by several skewed edges must not crowd the
// bounded Rule-2 candidate window with duplicates. The anchor list holds
// each vertex once, in first-occurrence order: Rule 1 and Rule 2 read only
// the anchor's vertex, so a vertex that both starts and ends skewed edges
// would repeat the same virtual edges in its second role.
func (bd *builder) anchor(seq int, st pipetrace.Stage, role uint8) {
	v := Vertex(seq, st)
	m := bd.b.mark[v]
	if m&role != 0 {
		return
	}
	bd.b.mark[v] = m | role
	bd.g.SkewedAnchors++
	if m&(markStart|markEnd) == 0 {
		bd.b.anchors = append(bd.b.anchors, stamped{vcode(seq, st), bd.recs[seq].Stamp[st]})
	}
}

// virtual adds the zero-cost virtual edge from the anchor vertex from,
// stamped t, to the target with order key k.
func (bd *builder) virtual(from VertexID, t int64, k uint64) {
	ks := &bd.g.ks
	bd.b.edges = append(bd.b.edges, Edge{
		From: from, To: vertexOf(ks.code(k)), Kind: EdgeVirtual, Delay: ks.time(k) - t,
	})
}

// NumEdges returns the total edge count: the stored edges plus the
// pipeline edges, which are counted but not stored.
func (g *Graph) NumEdges() int { return len(g.b.edges) + g.EdgesByKind[EdgePipeline] }

// Edges lists every edge in build order: per instruction its pipeline
// edges, then its skewed edges; then all virtual edges. It reads the
// graph's trace to rebuild the pipeline edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	stored := g.b.edges
	for seq := range len(g.b.mark) / pipetrace.NumStages {
		for v := Vertex(seq, 0); v < Vertex(seq+1, 0); v++ {
			if g.b.mark[v]&markPipe != 0 {
				out = append(out, g.pipeEdge(v))
			}
		}
		for len(stored) > 0 && stored[0].Kind != EdgeVirtual && stored[0].To.Seq() == seq {
			out, stored = append(out, stored[0]), stored[1:]
		}
	}
	return append(out, stored...)
}

// parentEdge returns the edge the DP chose into v, which has a parent: a
// stored edge, or the pipeline edge rebuilt from the record.
func (g *Graph) parentEdge(v VertexID) Edge {
	if pe := g.b.parent[v]; pe >= 0 {
		return g.b.edges[pe]
	}
	return g.pipeEdge(v)
}

// pipeEdge rebuilds the pipeline edge into v, a vertex marked markPipe.
func (g *Graph) pipeEdge(v VertexID) Edge {
	from := g.b.pipeTail(v)
	rec := &g.Trace.Records[g.base+v.Seq()]
	return Edge{
		From: from, To: v, Kind: EdgePipeline, Res: pipeRes(rec, from.Stage(), v.Stage()),
		Delay: rec.Stamp[v.Stage()] - rec.Stamp[from.Stage()],
	}
}

// pipeTail returns the tail of the pipeline edge into v, a vertex marked
// markPipe: the nearest listed stage of its instruction below v. The
// stages in between never happened, so nothing lists them.
func (b *buffers) pipeTail(v VertexID) VertexID {
	u := v - 1
	for b.mark[u]&markListed == 0 {
		u--
	}
	return u
}
