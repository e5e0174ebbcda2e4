package ooo

import (
	"fmt"
	"reflect"
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// collectStream runs RunStream and reassembles the chunks into one flat
// record slice (deep-copying annotation slices out of the chunk arenas so
// chunks can be released immediately, as a well-behaved sink would).
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
		for i := range c.Records {
			r := c.Records[i] // copy
			r.ResourceDeps = append([]pipetrace.ResourceDep(nil), r.ResourceDeps...)
			r.DataProducers = append([]int(nil), r.DataProducers...)
			recs = append(recs, r)
		}
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
