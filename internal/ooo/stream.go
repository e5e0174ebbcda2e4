package ooo

import (
	"fmt"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
)

// DefaultChunkSize is the record count per streamed chunk when the caller
// passes chunkSize <= 0: large enough that per-chunk overhead (the sink
// call, pool traffic) is amortized over ~1k instructions, small enough
// that analysis starts long before the simulation ends.
const DefaultChunkSize = 1024

// RunStream is Run in streaming mode: instead of materializing one trace,
// completed-instruction records are emitted in chunks of chunkSize records
// (the last may hold fewer) through sink, so a downstream analyzer can
// consume them while the simulation is still running and peak memory
// stays O(chunk + analyzer window) instead of O(trace).
//
// Run is RunStream's one-chunk case — the same per-instruction loop — so
// the timing model, the per-record annotations, and the returned Stats
// are bit-identical to Run over the same stream (pinned by the stream
// parity test); only the record packaging differs. Each chunk is a pooled
// pipetrace.Trace whose Cycles field is left zero. Records keep their
// global sequence numbers and hold their annotations inline, so ownership
// of a chunk passes wholesale to sink (see pipetrace.Trace for the
// ownership rules). A sink error stops the simulation immediately and
// surfaces as RunStream's error; the chunk that produced the error is
// still owned by the sink. Like Run's, the returned Stats is a copy.
//
// Like Run, RunStream never mutates the stream.
func (c *Core) RunStream(stream []isa.Inst, chunkSize int, sink func(*pipetrace.Trace) error) (*Stats, error) {
	if sink == nil {
		return nil, fmt.Errorf("ooo: nil chunk sink")
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return c.run(stream, chunkSize, sink)
}
