package pipetrace

import "testing"

// TestDirectTraceNeverPools: ad-hoc &Trace{} values reset on Release but
// never enter the pool.
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
	var nilTr *Trace
	nilTr.Release()
}

// TestChunkReleaseRecycles: streamed chunks round-trip through the trace
// pool with records and arena reset.
func TestChunkReleaseRecycles(t *testing.T) {
	var c *Chunk = GetTrace(4)
	c.Records = append(c.Records, NewRecord(0, 0x40, 0))
	c.Records[0].ResourceDeps = c.InternDeps([]ResourceDep{{Producer: 3}})
	c.Records[0].DataProducers = c.InternProducers([]int{1, 2})
	c.Release()

	c2 := GetTrace(4)
	if len(c2.Records) != 0 || len(c2.deps) != 0 || len(c2.prods) != 0 {
		t.Fatal("recycled chunk not reset")
	}
	c2.Release()
	var nilChunk *Chunk
	nilChunk.Release()
}

// TestTraceReleaseTwicePanics: a pooled trace — a whole run or a streamed
// chunk — has one owner, and a second Release would pool it twice, so two
// later GetTrace calls could hand the SAME *Trace to two concurrent
// simulations. The violation must be loud, the census counts the one get
// and the one release, and a trace that comes back out of the pool is
// releasable again.
func TestTraceReleaseTwicePanics(t *testing.T) {
	base := TracePoolStats()
	tr := GetTrace(4)
	tr.Release()
	if st := TracePoolStats(); st.Gets != base.Gets+1 || st.Puts != base.Puts+1 {
		t.Fatalf("one get and one release: %+v (base %+v)", st, base)
	}
	GetTrace(4).Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	tr.Release()
}

// TestChunkReleaseTwicePanics: a chunk has one owner, and a second Release
// would pool it twice, so two later GetTrace calls could hand the same
// storage to two simulations. The pool census counts the one get and the
// one release.
func TestChunkReleaseTwicePanics(t *testing.T) {
	base := TracePoolStats()
	var c *Chunk = GetTrace(4)
	c.Release()
	if st := TracePoolStats(); st.Gets != base.Gets+1 || st.Puts != base.Puts+1 {
		t.Fatalf("one get and one release: %+v (base %+v)", st, base)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	c.Release()
}
