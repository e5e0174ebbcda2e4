package deg

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// feedTrace replays a materialized trace through a StreamAnalyzer as
// chunkSize-record chunks, re-interning each record's annotation slices
// into its chunk's arena — exactly the ownership shape ooo.RunStream
// produces (whose record-level parity with Run is pinned separately).
func feedTrace(t *testing.T, sa *StreamAnalyzer, tr *pipetrace.Trace, chunkSize int) {
	t.Helper()
	n := len(tr.Records)
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		c := pipetrace.GetTrace(hi - lo)
		for i := lo; i < hi; i++ {
			r := tr.Records[i]
			r.ResourceDeps = c.InternDeps(r.ResourceDeps)
			r.DataProducers = c.InternProducers(r.DataProducers)
			c.Records = append(c.Records, r)
		}
		if err := sa.Feed(c); err != nil {
			t.Fatalf("Feed at %d: %v", lo, err)
		}
	}
}

// streamReport runs the full streamed analysis of tr.
func streamReport(t *testing.T, tr *pipetrace.Trace, opts WindowOptions, chunkSize int) (*Report, *WindowStats, *StreamAnalyzer) {
	t.Helper()
	sa, err := NewStreamAnalyzer(opts)
	if err != nil {
		t.Fatal(err)
	}
	feedTrace(t, sa, tr, chunkSize)
	rep, st, err := sa.Finish(tr.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	return rep, st, sa
}

// TestStreamMatchesWindowedExact pins the tentpole's parity guarantee:
// the streamed report and stats are bit-identical to AnalyzeWindowed at
// equal window/overlap, across window/overlap/chunk shapes including
// window smaller than overlap, window larger than the trace, whole-trace
// (window 0), and traces shorter than one margin.
func TestStreamMatchesWindowedExact(t *testing.T) {
	const n = 4000
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", n)
	cases := []struct {
		window, overlap, chunk int
	}{
		{500, 0, 256},       // default margin, multi-window
		{500, 0, 500},       // chunk == window
		{500, 0, 4096},      // single chunk
		{500, 0, 1},         // degenerate chunk
		{100, 300, 128},     // window smaller than overlap
		{n + 100, 0, 512},   // window larger than the trace -> whole-trace
		{0, 0, 512},         // window 0 -> whole-trace
		{1000, 64, 256},     // tight explicit overlap
		{3999, 0, 256},      // last window is one record
		{1, 16, 64},         // one-record windows
		{n, 0, 333},         // window == trace -> whole-trace
		{2000, 2 * n, 1024}, // margin larger than the trace
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("w%d_o%d_c%d", tc.window, tc.overlap, tc.chunk), func(t *testing.T) {
			opts := WindowOptions{Window: tc.window, Overlap: tc.overlap}
			wantRep, wantSt, err := AnalyzeWindowed(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			gotRep, gotSt, _ := streamReport(t, tr, opts, tc.chunk)
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("streamed report differs:\nstream %+v\nbatch  %+v", gotRep, wantRep)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("streamed stats differ:\nstream %+v\nbatch  %+v", gotSt, wantSt)
			}
		})
	}
}

// TestStreamShortTraceParity covers traces shorter than one margin — the
// whole-trace short-circuit — and the Cycles<=0 span fallback.
func TestStreamShortTraceParity(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "401.bzip2", 100)
	for _, window := range []int{0, 50, 99, 100, 400} {
		opts := WindowOptions{Window: window}
		wantRep, wantSt, err := AnalyzeWindowed(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, gotSt, _ := streamReport(t, tr, opts, 32)
		if !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("window %d: short-trace stream mismatch", window)
		}
	}

	// Cycles unset: windowed analysis falls back to the trace span; the
	// stream analyzer must reproduce it from its running F1/C aggregates.
	noCycles := &pipetrace.Trace{Records: tr.Records}
	wantRep, _, err := AnalyzeWindowed(noCycles, WindowOptions{Window: 30})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := NewStreamAnalyzer(WindowOptions{Window: 30})
	if err != nil {
		t.Fatal(err)
	}
	feedTrace(t, sa, noCycles, 16)
	gotRep, _, err := sa.Finish(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Fatalf("span-fallback mismatch: stream L=%d batch L=%d", gotRep.L, wantRep.L)
	}
}

// TestStreamPropertyRandom quantifies parity over random window/overlap/
// chunk combinations on two workloads and two configs.
func TestStreamPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0xa2c4))
	traces := []*pipetrace.Trace{
		traceFor(t, uarch.Baseline(), "458.sjeng", 2500),
		traceFor(t, uarch.Baseline(), "429.mcf", 1800),
	}
	for iter := 0; iter < 40; iter++ {
		tr := traces[rng.Intn(len(traces))]
		opts := WindowOptions{
			Window:  rng.Intn(3 * len(tr.Records) / 2), // includes 0 and > trace
			Overlap: rng.Intn(600),                     // includes 0 (default margin)
		}
		chunk := 1 + rng.Intn(2048)
		wantRep, wantSt, err := AnalyzeWindowed(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		gotRep, gotSt, _ := streamReport(t, tr, opts, chunk)
		if !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("iter %d (window=%d overlap=%d chunk=%d): stream/batch mismatch",
				iter, opts.Window, opts.Overlap, chunk)
		}
	}
}

// TestStreamMemoryBound asserts the tentpole's memory guarantee at every
// worker count: the analyzer never holds more than
// window + 2*overlap + chunk - 1 + copies*(window + 2*overlap) records,
// where copies is the worker count in parallel mode and zero in
// sequential mode, the bound does not grow with trace length, and every
// retained chunk is released by Finish.
func TestStreamMemoryBound(t *testing.T) {
	const window, chunk = 500, 128
	for _, workers := range []int{0, 1, 4} {
		for _, n := range []int{4000, 8000} {
			t.Run(fmt.Sprintf("k%d_n%d", workers, n), func(t *testing.T) {
				tr := traceFor(t, uarch.Baseline(), "458.sjeng", n)
				opts := WindowOptions{Window: window, Workers: workers}
				overlap, err := opts.effectiveOverlap()
				if err != nil {
					t.Fatal(err)
				}
				sa, err := NewStreamAnalyzer(opts)
				if err != nil {
					t.Fatal(err)
				}
				feedTrace(t, sa, tr, chunk)
				// Trace-length-independent: every term is a function of the
				// options alone.
				copies := 0
				if workers > 1 {
					copies = workers
				}
				bound := window + 2*overlap + chunk - 1 + copies*(window+2*overlap)
				if peak := sa.PeakBufferedRecords(); peak > bound {
					t.Fatalf("peak buffered %d records exceeds bound %d (window=%d overlap=%d chunk=%d copies=%d)",
						peak, bound, window, overlap, chunk, copies)
				}
				// The sliding buffer's chunk retention is worker-independent:
				// in-flight windows read copies, never the chunks.
				maxChunks := (window+2*overlap+chunk-1+chunk-1)/chunk + 1
				if held := sa.RetainedChunks(); held > maxChunks {
					t.Fatalf("retaining %d chunks, bound %d", held, maxChunks)
				}
				if _, _, err := sa.Finish(tr.Cycles); err != nil {
					t.Fatal(err)
				}
				if held := sa.RetainedChunks(); held != 0 {
					t.Fatalf("%d chunks leaked past Finish", held)
				}
			})
		}
	}
}

// TestStreamOverlapValidation pins satellite 2's error contract: an
// explicit overlap smaller than the config's reorder window is rejected
// eagerly — by NewStreamAnalyzer and by AnalyzeWindowed — instead of
// silently clipping producers; a zero overlap derives the margin from the
// reorder window.
func TestStreamOverlapValidation(t *testing.T) {
	bad := WindowOptions{Window: 500, Overlap: 128, ReorderWindow: 256}
	if _, err := NewStreamAnalyzer(bad); err == nil || !strings.Contains(err.Error(), "reorder window") {
		t.Fatalf("NewStreamAnalyzer(overlap < ROB) err = %v, want reorder-window error", err)
	}
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", 2000)
	if _, _, err := AnalyzeWindowed(tr, bad); err == nil || !strings.Contains(err.Error(), "reorder window") {
		t.Fatalf("AnalyzeWindowed(overlap < ROB) err = %v, want reorder-window error", err)
	}

	// Derived margin: ROB 256 needs 256+RefillSlack, above DefaultOverlap.
	if got := RequiredOverlap(256); got != 256+RefillSlack {
		t.Fatalf("RequiredOverlap(256) = %d, want %d", got, 256+RefillSlack)
	}
	// Small ROBs keep the historical default so existing results are
	// unchanged.
	if got := RequiredOverlap(50); got != DefaultOverlap {
		t.Fatalf("RequiredOverlap(50) = %d, want DefaultOverlap", got)
	}
	// An explicit overlap covering the reorder window passes validation.
	ok := WindowOptions{Window: 500, Overlap: 300, ReorderWindow: 256}
	if _, _, err := AnalyzeWindowed(tr, ok); err != nil {
		t.Fatal(err)
	}

	// Derived-margin parity: ReorderWindow-driven options agree between
	// the batch and streaming analyzers.
	derived := WindowOptions{Window: 500, ReorderWindow: 256}
	wantRep, wantSt, err := AnalyzeWindowed(tr, derived)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, gotSt, _ := streamReport(t, tr, derived, 256)
	if !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatal("derived-overlap stream/batch mismatch")
	}
}

// TestStreamMisuse covers the stream-order and lifecycle error paths.
func TestStreamMisuse(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "401.bzip2", 200)

	// Out-of-order chunk.
	sa, err := NewStreamAnalyzer(WindowOptions{Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	c := pipetrace.GetTrace(1)
	c.Records = append(c.Records, tr.Records[5])
	if err := sa.Feed(c); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gap Feed err = %v", err)
	}
	if _, _, err := sa.Finish(tr.Cycles); err == nil {
		t.Fatal("Finish after stream gap must fail")
	}

	// Empty stream.
	sa2, err := NewStreamAnalyzer(WindowOptions{Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sa2.Finish(0); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("empty Finish err = %v", err)
	}

	// Double Finish / Feed after Finish.
	_, _, sa3 := streamReport(t, tr, WindowOptions{Window: 50}, 64)
	if _, _, err := sa3.Finish(tr.Cycles); err == nil {
		t.Fatal("double Finish must fail")
	}
	c2 := pipetrace.GetTrace(1)
	c2.Records = append(c2.Records, tr.Records[0])
	if err := sa3.Feed(c2); err == nil {
		t.Fatal("Feed after Finish must fail")
	}

	// Close is idempotent and safe mid-stream.
	sa4, err := NewStreamAnalyzer(WindowOptions{Window: 50})
	if err != nil {
		t.Fatal(err)
	}
	feedTrace(t, sa4, tr, 32)
	sa4.Close()
	sa4.Close()
}
