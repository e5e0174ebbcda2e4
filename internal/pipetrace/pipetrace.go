// Package pipetrace defines the per-instruction microexecution record the
// simulator emits and the DEG formulation consumes.
//
// This is the repo's equivalent of the paper's "modified GEM5 to generate
// dynamic timing information": every committed instruction carries the
// cycle of each pipeline event (the vertices of Figure 7) plus dependence
// annotations resolved by the simulator's scoreboard — which instruction's
// released resource entry unblocked a rename stall, which instruction last
// used the functional unit or memory port we acquired, which producers our
// source operands waited on, and which mispredicted branch (re)started our
// fetch.
package pipetrace

import (
	"fmt"
	"math"

	"archexplorer/internal/isa"
	"archexplorer/internal/uarch"
)

// Stage enumerates the pipeline events of the new DEG formulation
// (Figure 7): F1 sends the I$ request, F2 receives the response, F copies
// into the fetch queue, DC decodes, R renames, DP dispatches, I issues,
// M starts the memory access (memory ops only), P completes execution,
// C commits.
type Stage uint8

const (
	SF1 Stage = iota
	SF2
	SF
	SDC
	SR
	SDP
	SI
	SM
	SP
	SC
	numStages
)

// NumStages is the number of pipeline events per instruction.
const NumStages = int(numStages)

var stageNames = [...]string{"F1", "F2", "F", "DC", "R", "DP", "I", "M", "P", "C"}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// NoStamp marks a stage that did not occur (M for non-memory ops).
const NoStamp int64 = -1

// ResourceDep records one rename-stall dependence: the instruction had to
// wait until Producer released an entry of Resource (Table 2's
// R(i) -> R(j) hardware-resource dependence).
type ResourceDep struct {
	Resource uarch.Resource
	Producer int32 // dynamic sequence number of the releasing instruction
}

// Annotation capacities of a Record. Rename allocates at most one entry
// each of the ROB, the IQ, the LQ or SQ and one register file, so at most
// four structures can stall it; an instruction has at most two source
// operands, so at most two data producers.
const (
	MaxResourceDeps  = 4
	MaxDataProducers = 2
)

// MaxTraceLen is the longest run a trace can describe: the dependence
// annotations hold producer sequence numbers as int32, so a longer run
// would wrap them. The simulator rejects longer streams.
const MaxTraceLen = math.MaxInt32

// Record is the complete microexecution history of one committed
// instruction. It holds its dependence annotations inline and no pointer,
// so copying a record copies all of it. The annotations name producers by
// int32 sequence numbers, which limits a run to MaxTraceLen instructions.
type Record struct {
	Seq   int // dynamic sequence number, 0-based commit order
	PC    uint64
	Class isa.OpClass

	// nDeps and nProds count the entries of deps and prods in use.
	nDeps, nProds uint8

	// Stamp holds the cycle of each pipeline event; NoStamp if absent.
	Stamp [NumStages]int64

	// deps lists the back-end structures whose exhaustion stalled this
	// instruction at rename, with the releasing producers (ResourceDeps).
	deps [MaxResourceDeps]ResourceDep

	// FUProducer is the sequence number of the instruction that last
	// released the functional unit this one executes on, when acquiring
	// the unit delayed issue; -1 otherwise. FURes names the unit class.
	FUProducer int
	FURes      uarch.Resource

	// PortProducer is like FUProducer for the cache read/write port.
	PortProducer int

	// prods are the sequence numbers of in-window producers of this
	// instruction's source operands (true data dependence, I(i) -> I(j);
	// DataProducers).
	prods [MaxDataProducers]int32

	// MispredictFrom is the sequence number of the mispredicted branch
	// whose resolution restarted the fetch of this instruction; -1 if the
	// fetch was not a misprediction refill.
	MispredictFrom int

	// Mispredicted marks branches the front end predicted incorrectly.
	Mispredicted bool

	// Latencies observed by this instruction.
	ICacheLat int64 // F1 -> F2 instruction fetch latency
	DCacheLat int64 // data access latency (memory ops)
	ExecLat   int64 // functional-unit latency
}

// NewRecord returns a Record with all stamps empty and producers cleared.
func NewRecord(seq int, pc uint64, class isa.OpClass) Record {
	var r Record
	r.Reset(seq, pc, class)
	return r
}

// Reset reinitializes r in place to exactly the state NewRecord returns.
// The simulator fills pooled record storage through it — resetting the
// slot a pipeline stage is about to write instead of building a ~200-byte
// struct on the stack and copying it into the slice per instruction. Every
// field is (re)assigned, so slots recycled by the trace pool cannot leak
// stale stamps or annotations.
func (r *Record) Reset(seq int, pc uint64, class isa.OpClass) {
	// Field-wise on purpose: `*r = Record{...}` materializes a ~200-byte
	// temporary and duffcopies it into the slot, which is the exact copy
	// this method exists to avoid.
	r.Seq = seq
	r.PC = pc
	r.Class = class
	for i := range r.Stamp {
		r.Stamp[i] = NoStamp
	}
	r.nDeps, r.nProds = 0, 0
	r.deps = [MaxResourceDeps]ResourceDep{}
	r.FUProducer = -1
	r.FURes = 0
	r.PortProducer = -1
	r.prods = [MaxDataProducers]int32{}
	r.MispredictFrom = -1
	r.Mispredicted = false
	r.ICacheLat = 0
	r.DCacheLat = 0
	r.ExecLat = 0
}

// ResourceDeps lists the back-end structures whose exhaustion stalled the
// instruction at rename, with the releasing producers. The slice aliases
// r: it reads r's current annotations and is valid as long as r is.
func (r *Record) ResourceDeps() []ResourceDep { return r.deps[:r.nDeps] }

// SetResourceDeps replaces r's resource dependences with deps. It panics
// if deps holds more than MaxResourceDeps entries.
func (r *Record) SetResourceDeps(deps ...ResourceDep) {
	if len(deps) > MaxResourceDeps {
		panic(fmt.Sprintf("pipetrace: seq %d: %d resource dependences, at most %d fit",
			r.Seq, len(deps), MaxResourceDeps))
	}
	r.nDeps = uint8(copy(r.deps[:], deps))
}

// DataProducers lists the sequence numbers of the in-window producers of
// the instruction's source operands (true data dependence, I(i) -> I(j)).
// The slice aliases r, as ResourceDeps' does.
func (r *Record) DataProducers() []int32 { return r.prods[:r.nProds] }

// SetDataProducers replaces r's data producers with prods. It panics if
// prods holds more than MaxDataProducers entries.
func (r *Record) SetDataProducers(prods ...int32) {
	if len(prods) > MaxDataProducers {
		panic(fmt.Sprintf("pipetrace: seq %d: %d data producers, at most %d fit",
			r.Seq, len(prods), MaxDataProducers))
	}
	r.nProds = uint8(copy(r.prods[:], prods))
}

// AppendReset extends recs by one record — reusing the existing slot in
// place when capacity allows, as it always does for pooled trace storage —
// and resets that slot to the NewRecord state. It returns the
// extended slice; the caller fills the last element through a pointer.
func AppendReset(recs []Record, seq int, pc uint64, class isa.OpClass) []Record {
	if len(recs) < cap(recs) {
		recs = recs[:len(recs)+1]
	} else {
		recs = append(recs, Record{})
	}
	recs[len(recs)-1].Reset(seq, pc, class)
	return recs
}

// Validate checks the monotonicity invariant: every present stage stamp is
// ordered F1 <= F2 <= F <= DC <= R <= DP <= I <= (M) <= P <= C.
func (r *Record) Validate() error {
	last := int64(0)
	lastStage := SF1
	for s := SF1; s < numStages; s++ {
		t := r.Stamp[s]
		if t == NoStamp {
			if s == SM { // only M may be absent
				continue
			}
			return fmt.Errorf("pipetrace: seq %d missing stage %s", r.Seq, s)
		}
		if t < last {
			return fmt.Errorf("pipetrace: seq %d stage %s at %d precedes %s at %d",
				r.Seq, s, t, lastStage, last)
		}
		last, lastStage = t, s
	}
	return nil
}

// Span returns the instruction's lifetime in cycles (C - F1).
func (r *Record) Span() int64 { return r.Stamp[SC] - r.Stamp[SF1] }

// HasStage reports whether the stage event occurred (M is absent for
// non-memory instructions).
func (r *Record) HasStage(s Stage) bool { return r.Stamp[s] != NoStamp }

// Trace is the microexecution of a workload on one design point: the
// whole run (ooo's Run), or one chunk of it in the streaming sim→DEG
// pipeline (ooo's RunStream), whose records keep their global sequence
// numbers. Records are self-contained, so a trace's record storage is all
// the storage it owns.
//
// Ownership rules (one owner at a time):
//
//   - The simulator owns a trace from GetTrace until it returns it (Run)
//     or its sink callback returns (RunStream); it does not touch the
//     trace afterwards.
//   - The receiver owns it from then until it Releases it, which it may
//     only do once it no longer reads the trace's records in place. A
//     receiver that needs records past that point copies them out.
//   - Release recycles the storage through a pool shared with future
//     runs and chunks, so a late read after it observes another
//     simulation's records.
type Trace struct {
	// Records hold committed instructions in commit order; Seq is the
	// commit index in the whole run, also in a streamed chunk.
	Records []Record
	Cycles  int64 // total simulated cycles of a whole run; zero in a streamed chunk

	// pooled marks traces that came from GetTrace: only those are
	// recycled — a zero-valued &Trace{} resets on Release but never enters
	// the pool. released marks a pooled trace its one owner has handed
	// back; see Release.
	pooled, released bool
}

// Chunk is the former name of a streamed chunk, now a Trace.
//
// Deprecated: use Trace. Chunk remains for the archbench replay.
type Chunk = Trace

// Span returns the wall-clock interval the trace covers: last commit minus
// first fetch. Zero for an empty trace.
func (t *Trace) Span() int64 {
	n := len(t.Records)
	if n == 0 {
		return 0
	}
	return t.Records[n-1].Stamp[SC] - t.Records[0].Stamp[SF1]
}

// IPC returns committed instructions per cycle.
func (t *Trace) IPC() float64 {
	if t.Cycles == 0 {
		return 0
	}
	return float64(len(t.Records)) / float64(t.Cycles)
}

// Validate checks every record plus the whole-trace invariants: sequence
// numbers are dense and commits are in order.
func (t *Trace) Validate() error {
	var lastCommit int64
	for i := range t.Records {
		r := &t.Records[i]
		if r.Seq != i {
			return fmt.Errorf("pipetrace: record %d has seq %d", i, r.Seq)
		}
		if err := r.Validate(); err != nil {
			return err
		}
		if r.Stamp[SC] < lastCommit {
			return fmt.Errorf("pipetrace: seq %d commits at %d before predecessor at %d",
				r.Seq, r.Stamp[SC], lastCommit)
		}
		lastCommit = r.Stamp[SC]
	}
	if n := len(t.Records); n > 0 && t.Cycles < t.Records[n-1].Stamp[SC] {
		return fmt.Errorf("pipetrace: total cycles %d precede last commit %d",
			t.Cycles, t.Records[n-1].Stamp[SC])
	}
	return nil
}
