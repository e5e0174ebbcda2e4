package ooo

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// collectStream runs RunStream and reassembles the chunks into one flat
// record slice (copying the records out so chunks can be released
// immediately, as a well-behaved sink would).
func collectStream(t *testing.T, cfg uarch.Config, n, chunkSize int) ([]pipetrace.Record, *Stats) {
	t.Helper()
	stream := testStream(t, n)
	core, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs []pipetrace.Record
	var sizes []int
	stats, err := core.RunStream(stream, chunkSize, func(c *pipetrace.Trace) error {
		sizes = append(sizes, len(c.Records))
		recs = append(recs, c.Records...)
		c.Release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := chunkSize
	if want <= 0 {
		want = DefaultChunkSize
	}
	for i, s := range sizes {
		if s == 0 {
			t.Fatalf("chunk %d is empty", i)
		}
		if i < len(sizes)-1 && s != want {
			t.Fatalf("non-final chunk %d holds %d records, want %d", i, s, want)
		}
	}
	return recs, stats
}

func testStream(t *testing.T, n int) []isa.Inst {
	t.Helper()
	p, err := workload.ByName("458.sjeng")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestRunStreamMatchesRun pins the streaming emitter to the batch path:
// same records (stamps and annotations), same Stats, for chunk sizes that
// divide the trace, that don't, that exceed it, and the degenerate 1.
func TestRunStreamMatchesRun(t *testing.T) {
	const n = 3000
	for _, cfg := range []uarch.Config{uarch.Baseline(), tightConfig()} {
		core, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, wantStats, err := core.Run(testStream(t, n))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunkSize := range []int{0, 1, 500, 512, n, n + 999} {
			t.Run(fmt.Sprintf("%s/chunk%d", cfg, chunkSize), func(t *testing.T) {
				recs, stats := collectStream(t, cfg, n, chunkSize)
				if len(recs) != len(tr.Records) {
					t.Fatalf("streamed %d records, batch %d", len(recs), len(tr.Records))
				}
				for i := range recs {
					if !reflect.DeepEqual(recs[i], tr.Records[i]) {
						t.Fatalf("record %d differs:\nstream %+v\nbatch  %+v", i, recs[i], tr.Records[i])
					}
				}
				if *stats != *wantStats {
					t.Fatalf("stats differ:\nstream %+v\nbatch  %+v", *stats, *wantStats)
				}
			})
		}
	}
}

// TestRunStreamSinkError checks that a sink failure aborts the simulation
// and surfaces the sink's error.
func TestRunStreamSinkError(t *testing.T) {
	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	boom := fmt.Errorf("sink exploded")
	calls := 0
	_, err = core.RunStream(testStream(t, 3000), 256, func(c *pipetrace.Trace) error {
		calls++
		c.Release()
		if calls == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("got err %v, want the sink's error", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times after erroring on call 2", calls)
	}
}

// countingCtx is a context whose Err reports cancellation from its
// (limit+1)th call on, and counts the calls.
type countingCtx struct {
	context.Context
	calls, limit int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunStatsChecksContextPerChunk: RunStats asks ctx once per
// DefaultChunkSize chunk, stops at the first chunk after it ends and
// returns its error, and releases every chunk it filled either way.
func TestRunStatsChecksContextPerChunk(t *testing.T) {
	stream := testStream(t, 3*DefaultChunkSize-100) // three chunks, the last short
	for _, tc := range []struct {
		limit, calls int
		err          error
	}{{limit: 3, calls: 3}, {limit: 1, calls: 2, err: context.Canceled}, {limit: 0, calls: 1, err: context.Canceled}} {
		core, err := New(uarch.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		before := pipetrace.TracePoolStats()
		ctx := &countingCtx{Context: context.Background(), limit: tc.limit}
		st, err := core.RunStats(ctx, stream)
		after := pipetrace.TracePoolStats()
		if err != tc.err || ctx.calls != tc.calls {
			t.Fatalf("ctx ending after %d checks: err %v after %d checks, want %v after %d", tc.limit, err, ctx.calls, tc.err, tc.calls)
		}
		if (err == nil) != (st != nil) {
			t.Fatalf("ctx ending after %d checks: Stats %v with err %v", tc.limit, st, err)
		}
		if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets != int64(tc.calls) || puts != gets {
			t.Fatalf("ctx ending after %d checks: %d chunks taken, %d released, want %d of each", tc.limit, gets, puts, tc.calls)
		}
		core.Release()
	}
}
