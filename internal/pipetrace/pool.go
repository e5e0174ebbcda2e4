package pipetrace

import (
	"sync"
	"sync/atomic"
)

// tracePool recycles Trace buffers — the records array plus the annotation
// arena — across simulator runs, streamed chunks and the stream analyzer's
// window copies. Repeated evaluations (the DSE loop's steady state) then
// run allocation-free in the record path: the pool mirrors the DEG stage's
// buffer pools from the windowed analyzer.
var tracePool sync.Pool

// PoolStats counts the trace pool's traffic (TracePoolStats). The counters
// exist so tests can assert lifecycle invariants — every acquired trace is
// released by the time its owner returns, stage timeouts included —
// without poking at sync.Pool internals; they are two atomic adds per
// simulator run or chunk, far off the per-record hot path.
type PoolStats struct {
	// Gets counts GetTrace calls; Puts counts releases back to the pool.
	// Gets - Puts is the number of live (pool-owned, unreleased) traces.
	Gets, Puts int64
}

var poolGets, poolPuts atomic.Int64

// TracePoolStats returns a snapshot of the trace pool's counters.
func TracePoolStats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Puts: poolPuts.Load()}
}

// GetTrace returns an empty trace whose record storage can hold at least
// capacity records without growing, reusing a released trace when one is
// available. The caller owns the trace and hands it back with Release.
func GetTrace(capacity int) *Trace {
	poolGets.Add(1)
	if v := tracePool.Get(); v != nil {
		t := v.(*Trace)
		if cap(t.Records) < capacity {
			t.Records = make([]Record, 0, capacity)
		}
		t.released = false
		return t
	}
	return &Trace{Records: make([]Record, 0, capacity), pooled: true}
}

// Release resets the trace and returns its storage to the pool. The
// caller must not touch the trace — or any Record or annotation slice
// obtained from it — afterwards: the next GetTrace may hand the same
// backing storage to a concurrent simulation. Releasing a pooled trace
// twice panics: a second Put would let two later GetTrace calls hand the
// SAME *Trace to two concurrent simulations, so the violation must be
// loud, not a latent cross-config aliasing bug. Nil-safe.
//
// Traces constructed directly (&Trace{}, not via GetTrace) never enter the
// pool; Release only resets them.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	if t.pooled && t.released {
		panic("pipetrace: Trace released twice")
	}
	t.Records = t.Records[:0]
	t.Cycles = 0
	t.Arena.reset()
	if t.pooled {
		t.released = true
		poolPuts.Add(1)
		tracePool.Put(t)
	}
}
