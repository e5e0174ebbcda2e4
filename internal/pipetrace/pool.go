package pipetrace

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// tracePools recycle Trace record buffers across simulator runs, streamed
// chunks and the stream analyzer's window copies. Repeated evaluations (the
// DSE loop's steady state) then run allocation-free in the record path:
// the pools mirror the DEG stage's buffer pools from the windowed analyzer.
//
// Pool k holds released traces whose record capacity lies in [2^k,
// 2^(k+1)), and GetTrace(n) takes from pool floor(log2 n), so it never
// hands out a trace of twice the capacity asked for: a released
// whole-run trace cannot come back as a small chunk and keep its records
// live.
var tracePools [bits.UintSize]sync.Pool

// capClass is the pool a trace of record capacity n belongs to,
// floor(log2 n), with capacity 0 in pool 0.
func capClass(n int) int { return max(bits.Len(uint(n))-1, 0) }

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
// capacity records without growing, reusing a released trace of less than
// twice that capacity when one is available. The caller owns the trace and
// hands it back with Release.
func GetTrace(capacity int) *Trace {
	poolGets.Add(1)
	if v := tracePools[capClass(capacity)].Get(); v != nil {
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
// caller must not touch the trace — or any Record or annotation view
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
	if t.pooled {
		t.released = true
		poolPuts.Add(1)
		tracePools[capClass(cap(t.Records))].Put(t)
	}
}
