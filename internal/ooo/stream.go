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

// RunStream is Run in streaming mode: instead of materializing one Trace,
// completed-instruction records are emitted in fixed-size chunks through
// sink, so a downstream analyzer can consume them while the simulation is
// still running and peak memory stays O(chunk + analyzer window) instead
// of O(trace).
//
// The timing model, the per-record annotations, and the returned Stats are
// bit-identical to Run over the same stream (pinned by the stream parity
// test); only the record packaging differs. Records keep their global
// sequence numbers, and each chunk's annotation slices are interned into
// that chunk's own arena, so ownership of a chunk — records plus
// annotation storage — passes wholesale to sink (see pipetrace.Chunk for
// the ownership rules). A sink error stops the simulation immediately and
// surfaces as RunStream's error; the chunk that produced the error is
// still owned by the sink. Like Run's, the returned Stats is a copy.
//
// Like Run, RunStream never mutates the stream.
func (c *Core) RunStream(stream []isa.Inst, chunkSize int, sink func(*pipetrace.Chunk) error) (*Stats, error) {
	if len(stream) == 0 {
		return nil, fmt.Errorf("ooo: empty instruction stream")
	}
	if sink == nil {
		return nil, fmt.Errorf("ooo: nil chunk sink")
	}
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}

	chunk := pipetrace.GetChunk(chunkSize)
	c.arena = &chunk.Arena
	c.lite = false
	flush := func() error {
		err := sink(chunk)
		chunk = nil
		c.arena = nil
		return err
	}

	for seq := range stream {
		in := &stream[seq]
		chunk.Records = pipetrace.AppendReset(chunk.Records, seq, in.PC, in.Class)
		rec := &chunk.Records[len(chunk.Records)-1]

		c.fetch(in, rec)
		c.decode(rec)
		c.rename(in, rec)
		c.schedule(in, rec)
		c.commit(in, rec)

		if len(chunk.Records) == chunkSize {
			if err := flush(); err != nil {
				return nil, err
			}
			chunk = pipetrace.GetChunk(chunkSize)
			c.arena = &chunk.Arena
		}
	}
	if len(chunk.Records) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	} else {
		chunk.Release()
		c.arena = nil
	}
	c.finalizeStats(len(stream))
	st := c.stats
	return &st, nil
}
