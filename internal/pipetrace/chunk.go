package pipetrace

import (
	"sync"
	"sync/atomic"
)

// Chunk is one fixed-size batch of committed-instruction records in the
// streaming sim→DEG pipeline. The simulator fills a chunk — records plus
// the arena their annotation slices are interned into — and hands it to
// the analysis sink; ownership passes with the handoff.
//
// Ownership rules (the streaming pipeline's memory contract):
//
//   - The producer (simulator) owns a chunk from GetChunk until its sink
//     callback returns; it must not touch the chunk afterwards.
//   - The consumer (stream analyzer) owns it from the sink call until it
//     Releases it — which it may only do once no retained Record (or
//     annotation subslice) it still reads aliases the chunk. A consumer
//     that needs records past that point copies them out, re-interning
//     their annotations into storage of its own.
//   - Release recycles the chunk's storage through a pool shared with
//     future chunks, so a late read after it observes another
//     simulation's records; the analyzer therefore holds every chunk
//     whose records overlap a still-unanalyzed window.
type Chunk struct {
	// Records hold globally sequenced committed instructions: Seq is the
	// commit index in the whole run, not the chunk.
	Records []Record

	// Arena backs the records' annotation slices, exactly as a Trace's
	// arena backs a batch run's records.
	Arena

	released bool
}

var chunkPool sync.Pool

var chunkGets, chunkPuts atomic.Int64

// ChunkPoolStats returns a snapshot of the chunk pool's counters: Gets
// counts GetChunk calls, Puts counts chunks returned by Release.
func ChunkPoolStats() PoolStats {
	return PoolStats{Gets: chunkGets.Load(), Puts: chunkPuts.Load()}
}

// GetChunk returns an empty chunk whose record storage can hold at least
// capacity records without growing, reusing a released chunk when one is
// available. The caller owns the chunk.
func GetChunk(capacity int) *Chunk {
	chunkGets.Add(1)
	if v := chunkPool.Get(); v != nil {
		c := v.(*Chunk)
		if cap(c.Records) < capacity {
			c.Records = make([]Record, 0, capacity)
		}
		c.released = false
		return c
	}
	return &Chunk{Records: make([]Record, 0, capacity)}
}

// Release resets the chunk and returns its storage to the pool. The caller must not touch the chunk — or any
// Record or annotation slice obtained from it — afterwards. Releasing a
// chunk twice panics: the contract guards against the pool handing one
// chunk to two concurrent simulations, so a violation must be loud, not a
// latent aliasing bug. Nil-safe.
func (c *Chunk) Release() {
	if c == nil {
		return
	}
	if c.released {
		panic("pipetrace: Chunk released twice")
	}
	c.released = true
	c.Records = c.Records[:0]
	c.Arena.reset()
	chunkPuts.Add(1)
	chunkPool.Put(c)
}
