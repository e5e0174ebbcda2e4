package pipetrace

import "testing"

// TestTraceRetainRelease pins the ownership-handoff contract: a pooled
// trace recycles exactly when its last reference drops, however many
// holders took references in between.
func TestTraceRetainRelease(t *testing.T) {
	base := TracePoolStats()

	tr := GetTrace(8)
	tr.Records = append(tr.Records, NewRecord(0, 0x40, 0))
	tr.Retain() // a second holder (e.g. an abandoned analysis attempt)
	tr.Retain()

	tr.Release() // owner drops; two holders remain
	tr.Release()
	if st := TracePoolStats(); st.Puts != base.Puts {
		t.Fatalf("trace pooled with a live reference: %+v", st)
	}
	if len(tr.Records) != 1 {
		t.Fatal("records reset before the last reference dropped")
	}
	tr.Release() // last holder: now it recycles
	st := TracePoolStats()
	if st.Puts != base.Puts+1 {
		t.Fatalf("final release did not pool the trace: %+v (base %+v)", st, base)
	}
	if st.Gets != base.Gets+1 || st.Retains != base.Retains+2 {
		t.Fatalf("counter mismatch: %+v (base %+v)", st, base)
	}

	// A second acquisition may reuse the same storage; it must come back
	// reset and independently refcounted.
	tr2 := GetTrace(8)
	if len(tr2.Records) != 0 || len(tr2.deps) != 0 || len(tr2.prods) != 0 {
		t.Fatal("recycled trace not reset")
	}
	tr2.Release()
}

// TestDirectTraceNeverPools: ad-hoc &Trace{} values reset on Release but
// never enter the pool — they carry no reference accounting.
func TestDirectTraceNeverPools(t *testing.T) {
	base := TracePoolStats()
	tr := &Trace{Cycles: 42}
	tr.Records = append(tr.Records, NewRecord(0, 0x40, 0))
	tr.Release()
	if len(tr.Records) != 0 || tr.Cycles != 0 {
		t.Fatal("direct trace not reset by Release")
	}
	if st := TracePoolStats(); st.Puts != base.Puts || st.Gets != base.Gets {
		t.Fatalf("direct trace touched the pool: %+v (base %+v)", st, base)
	}
	// Nil-safety mirrors Release.
	var nilTr *Trace
	nilTr.Retain()
	nilTr.Release()
}

// TestChunkReleaseRecycles: chunks round-trip through their pool with
// records and arena reset.
func TestChunkReleaseRecycles(t *testing.T) {
	c := GetChunk(4)
	c.Records = append(c.Records, NewRecord(0, 0x40, 0))
	c.Records[0].ResourceDeps = c.InternDeps([]ResourceDep{{Producer: 3}})
	c.Records[0].DataProducers = c.InternProducers([]int{1, 2})
	c.Release()

	c2 := GetChunk(4)
	if len(c2.Records) != 0 || len(c2.deps) != 0 || len(c2.prods) != 0 {
		t.Fatal("recycled chunk not reset")
	}
	c2.Release()
	var nilChunk *Chunk
	nilChunk.Release()
}

// TestReleaseBeyondZeroPanics pins the batch-mode aliasing guard: dropping
// more references than were ever taken used to drive the refcount negative
// and fall through to a second reset+Put, after which two later GetTrace
// calls could hand the SAME *Trace to two concurrent simulations (one
// batch lane scribbling over another's records). The contract violation
// must be loud instead.
func TestReleaseBeyondZeroPanics(t *testing.T) {
	tr := GetTrace(4)
	tr.Retain()
	tr.Release() // holder drops (refs 2 -> 1)
	tr.Release() // owner drops: final release, trace recycles
	defer func() {
		if recover() == nil {
			t.Fatal("Release beyond the last reference did not panic")
		}
	}()
	tr.Release() // stale extra release: must panic, not double-Put
}

// TestChunkReleaseTwicePanics: a chunk has one owner, and a second Release
// would pool it twice, so two later GetChunk calls could hand the same
// storage to two simulations.
func TestChunkReleaseTwicePanics(t *testing.T) {
	c := GetChunk(4)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	c.Release()
}
