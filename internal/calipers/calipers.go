// Package calipers reimplements the *previous* DEG formulation (Fields et
// al.'s dependence-graph model as used by Calipers, the representative
// baseline of the paper's Section 3) so its failure modes can be measured
// against the new formulation:
//
//  1. Static weights: penalties (misprediction, cache misses) are fixed
//     constants chosen ahead of time, not the actual intervals observed in
//     the microexecution.
//  2. Producer-consumer resource edges: capacity structures contribute
//     edges such as C(i) -> F(i+ROB) regardless of whether the resource was
//     actually exhausted (false dependence).
//  3. Consecutive same-unit execute edges: every pair of consecutive users
//     of a contended unit is connected, double-counting overlapped
//     (concurrent) events.
//
// The model consumes the same committed-instruction stream as the new DEG
// (it can see which branches mispredicted and which accesses missed — that
// information was available to prior work through simulator traces too) but
// follows the previous formulation's static rules for edges and weights.
// Its critical path length therefore deviates from the actual runtime,
// reproducing the Figure 5 error analysis.
package calipers

import (
	"fmt"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// Static penalties of the previous formulation (cycles). These mirror the
// fixed numbers such models hard-code: a uniform branch misprediction
// penalty and uniform cache miss latencies.
const (
	StaticMispredictPenalty = 8
	StaticL1MissPenalty     = 12
	StaticL2MissPenalty     = 200
	StaticFetchWeight       = 1 // consecutive-fetch edge weight per group
)

// Vertex stages of the previous formulation: one fetch, dispatch, execute,
// and commit event per instruction (the classic four-node row).
type Stage uint8

const (
	SFetch Stage = iota
	SDispatch
	SExecute
	SCommit
	numStages
)

var stageNames = [...]string{"F", "D", "E", "C"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// VertexID addresses (seq, stage).
type VertexID int32

// Vertex builds a vertex ID.
func Vertex(seq int, st Stage) VertexID { return VertexID(seq*int(numStages) + int(st)) }

// Seq returns the instruction index.
func (v VertexID) Seq() int { return int(v) / int(numStages) }

// Stage returns the pipeline stage.
func (v VertexID) Stage() Stage { return Stage(int(v) % int(numStages)) }

// Edge is a statically-weighted dependence.
type Edge struct {
	From, To VertexID
	Weight   int64
	Res      uarch.Resource
}

// Graph is the previous-formulation DEG.
type Graph struct {
	N     int
	Edges []Edge
	in    [][]int32
}

// Config carries the structure sizes the static rules need.
type Config struct {
	ROBEntries int
	IQEntries  int
	LQEntries  int
	SQEntries  int
	Width      int
	RdWrPorts  int
}

// Build constructs the previous-formulation graph from a committed pipeline
// trace. Only event *occurrence* (mispredicted? missed?) is taken from the
// trace; weights and structural edges follow the static rules.
func Build(tr *pipetrace.Trace, cfg Config) (*Graph, error) {
	n := len(tr.Records)
	if n == 0 {
		return nil, fmt.Errorf("calipers: empty trace")
	}
	g := &Graph{N: n}
	add := func(from, to VertexID, w int64, res uarch.Resource) {
		if from >= to {
			return
		}
		g.Edges = append(g.Edges, Edge{From: from, To: to, Weight: w, Res: res})
	}

	var lastPortUser = -1
	for i := range tr.Records {
		rec := &tr.Records[i]

		// Intra-instruction pipeline edges with static latencies.
		add(Vertex(i, SFetch), Vertex(i, SDispatch), 3, uarch.ResNone) // fixed front-end depth
		execLat := rec.ExecLat
		if rec.Class == isa.OpLoad {
			// Static cache penalty chosen by observed miss level.
			switch {
			case rec.DCacheLat > 100:
				execLat += StaticL2MissPenalty
			case rec.DCacheLat > 4:
				execLat += StaticL1MissPenalty
			default:
				execLat += 2
			}
		}
		add(Vertex(i, SDispatch), Vertex(i, SExecute), execLat, uarch.ResDCache)
		add(Vertex(i, SExecute), Vertex(i, SCommit), 1, uarch.ResNone)

		// Consecutive fetch and commit edges (in-order chains).
		if i > 0 {
			wF := int64(0)
			if i%cfg.Width == 0 {
				wF = StaticFetchWeight
			}
			add(Vertex(i-1, SFetch), Vertex(i, SFetch), wF, uarch.ResFrontend)
			add(Vertex(i-1, SCommit), Vertex(i, SCommit), wF, uarch.ResROB)
		}

		// Static misprediction penalty from the branch's execute to the
		// next instruction's fetch.
		if rec.Mispredicted && i+1 < n {
			add(Vertex(i, SExecute), Vertex(i+1, SFetch), StaticMispredictPenalty, uarch.ResBranchPred)
		}

		// Producer-consumer resource edges inserted unconditionally (the
		// false-dependence failure mode): the instruction ROB entries
		// ahead must commit before i can dispatch, etc.
		if j := i - cfg.ROBEntries; j >= 0 {
			add(Vertex(j, SCommit), Vertex(i, SDispatch), 0, uarch.ResROB)
		}
		if j := i - cfg.IQEntries; j >= 0 {
			add(Vertex(j, SExecute), Vertex(i, SDispatch), 0, uarch.ResIQ)
		}

		// True data dependencies with static forwarding latency.
		for _, p := range rec.DataProducers() {
			add(Vertex(int(p), SExecute), Vertex(i, SExecute), 1, uarch.ResRawDep)
		}

		// Read/write port contention: consecutive memory instructions are
		// chained execute-to-execute (the Figure 5(b) overestimation).
		if rec.Class.IsMem() {
			if lastPortUser >= 0 {
				add(Vertex(lastPortUser, SExecute), Vertex(i, SExecute), 1, uarch.ResRdWrPort)
			}
			lastPortUser = i
		}
	}

	g.in = make([][]int32, n*int(numStages))
	for idx := range g.Edges {
		g.in[g.Edges[idx].To] = append(g.in[g.Edges[idx].To], int32(idx))
	}
	return g, nil
}

// Result is the previous formulation's critical-path output.
type Result struct {
	Length     int64 // estimated execution cycles (critical path length)
	DelayByRes [uarch.NumResources]int64
	Edges      int
}

// CriticalPath computes the longest (max-weight) path from the first fetch
// to the last commit; vertex IDs are already a topological order since
// every edge goes from a lower ID to a higher one.
func (g *Graph) CriticalPath() (*Result, error) {
	total := g.N * int(numStages)
	d := make([]int64, total)
	parent := make([]int32, total)
	for i := range parent {
		parent[i] = -1
	}
	for v := 0; v < total; v++ {
		for _, ei := range g.in[v] {
			e := g.Edges[ei]
			if c := d[e.From] + e.Weight; c > d[v] || parent[v] < 0 && c == d[v] {
				d[v] = c
				parent[v] = ei
			}
		}
	}
	res := &Result{}
	end := Vertex(g.N-1, SCommit)
	res.Length = d[end]
	for v := int32(end); v >= 0 && parent[v] >= 0; {
		e := g.Edges[parent[v]]
		if e.Res != uarch.ResNone {
			res.DelayByRes[e.Res] += e.Weight
		}
		res.Edges++
		v = int32(e.From)
	}
	return res, nil
}

// NumVertices returns the vertex count of the previous formulation.
func (g *Graph) NumVertices() int { return g.N * int(numStages) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }
