package deg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// TestParallelWindowedParity pins the determinism guarantee of parallel
// windows with the whole trace available up front: a StreamAnalyzer fed
// the trace as one chunk, at any worker count, returns a Report and
// WindowStats bit-identical to the sequential AnalyzeWindowed, across the
// same window/overlap shapes the stream parity suite uses — including
// overlap larger than window and margins larger than the trace.
func TestParallelWindowedParity(t *testing.T) {
	const n = 4000
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", n)
	cases := []struct {
		window, overlap int
	}{
		{500, 0},
		{100, 300}, // window smaller than overlap
		{n + 100, 0},
		{0, 0},
		{1000, 64},
		{3999, 0},
		{1, 16},
		{2000, 2 * n}, // margin larger than the trace
	}
	for _, tc := range cases {
		for _, workers := range []int{2, 3, 4, 8, 64} {
			t.Run(fmt.Sprintf("w%d_o%d_k%d", tc.window, tc.overlap, workers), func(t *testing.T) {
				seq := WindowOptions{Window: tc.window, Overlap: tc.overlap}
				wantRep, wantSt, err := AnalyzeWindowed(tr, seq)
				if err != nil {
					t.Fatal(err)
				}
				par := seq
				par.Workers = workers
				gotRep, gotSt, _ := streamReport(t, tr, par, n)
				if !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("parallel report differs:\npar %+v\nseq %+v", gotRep, wantRep)
				}
				if !reflect.DeepEqual(gotSt, wantSt) {
					t.Fatalf("parallel stats differ:\npar %+v\nseq %+v", gotSt, wantSt)
				}
			})
		}
	}
}

// TestParallelStreamParity: the streaming analyzer's parallel mode against
// the sequential batch analyzer — the full three-way agreement (batch seq,
// stream seq, stream par) reduces to this plus the existing stream suite.
func TestParallelStreamParity(t *testing.T) {
	const n = 4000
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", n)
	cases := []struct {
		window, overlap, chunk, workers int
	}{
		{500, 0, 256, 2},
		{500, 0, 1, 4},
		{100, 300, 128, 4}, // window smaller than overlap
		{n + 100, 0, 512, 4},
		{0, 0, 512, 8},
		{1000, 64, 256, 3},
		{1, 16, 64, 4},
		{2000, 2 * n, 1024, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("w%d_o%d_c%d_k%d", tc.window, tc.overlap, tc.chunk, tc.workers), func(t *testing.T) {
			seq := WindowOptions{Window: tc.window, Overlap: tc.overlap}
			wantRep, wantSt, err := AnalyzeWindowed(tr, seq)
			if err != nil {
				t.Fatal(err)
			}
			par := seq
			par.Workers = tc.workers
			gotRep, gotSt, _ := streamReport(t, tr, par, tc.chunk)
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("parallel stream report differs:\npar %+v\nseq %+v", gotRep, wantRep)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Fatalf("parallel stream stats differ:\npar %+v\nseq %+v", gotSt, wantSt)
			}
		})
	}
}

// TestParallelPropertyRandom quantifies worker-count invariance over random
// {window, overlap, chunk, workers} draws: every draw's parallel stream
// report, fed the trace as one chunk and as random-size chunks, must match
// the sequential batch analyzer bit for bit. Run under -race this doubles
// as the data-race gate on the dispatch/fold machinery.
func TestParallelPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7a11e1))
	traces := []*pipetrace.Trace{
		traceFor(t, uarch.Baseline(), "458.sjeng", 2500),
		traceFor(t, uarch.Baseline(), "429.mcf", 1800),
	}
	iters := 30
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		tr := traces[rng.Intn(len(traces))]
		opts := WindowOptions{
			Window:  rng.Intn(3 * len(tr.Records) / 2), // includes 0 and > trace
			Overlap: rng.Intn(600),                     // includes 0 (default margin)
		}
		chunk := 1 + rng.Intn(2048)
		workers := 2 + rng.Intn(7)
		wantRep, wantSt, err := AnalyzeWindowed(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		par := opts
		par.Workers = workers
		oneRep, oneSt, _ := streamReport(t, tr, par, len(tr.Records))
		if !reflect.DeepEqual(oneRep, wantRep) || !reflect.DeepEqual(oneSt, wantSt) {
			t.Fatalf("iter %d (window=%d overlap=%d workers=%d): one-chunk parallel mismatch",
				iter, opts.Window, opts.Overlap, workers)
		}
		gotRep, gotSt, _ := streamReport(t, tr, par, chunk)
		if !reflect.DeepEqual(gotRep, wantRep) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("iter %d (window=%d overlap=%d chunk=%d workers=%d): stream parallel mismatch",
				iter, opts.Window, opts.Overlap, chunk, workers)
		}
	}
}

// TestOverlapCoversTraceMatchesWholeTrace pins the exactly-once attribution
// property behind the overlap >= window corner (the "duplicate stitch"
// risk): when the margin covers the whole trace, every window builds the
// same full graph and finds the same global critical path, and since the
// windows' [lo, hi) ownership ranges partition the trace, the stitched
// report must equal whole-trace Analyze EXACTLY. Any double attribution of
// an edge whose head lands in two windows' margins would break this. The
// sequential AnalyzeWindowed and a 4-worker StreamAnalyzer both must.
func TestOverlapCoversTraceMatchesWholeTrace(t *testing.T) {
	const n = 2000
	tr := traceFor(t, uarch.Baseline(), "429.mcf", n)
	whole, _, _, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{250, 500, 1999} {
		opts := WindowOptions{Window: window, Overlap: 2 * n}
		rep, st, err := AnalyzeWindowed(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 4
		parRep, parSt, _ := streamReport(t, tr, opts, 256)
		for _, run := range []struct {
			name string
			rep  *Report
			st   *WindowStats
		}{{"sequential", rep, st}, {"4-worker stream", parRep, parSt}} {
			if !reflect.DeepEqual(run.rep, whole) {
				t.Fatalf("window=%d %s overlap=full-trace: stitched report diverges from whole-trace Analyze:\nwindowed %+v\nwhole    %+v",
					window, run.name, run.rep, whole)
			}
			if want := (n + window - 1) / window; run.st.Windows != want {
				t.Fatalf("window=%d %s: %d windows, want %d", window, run.name, run.st.Windows, want)
			}
		}
	}
}

// TestParallelStreamMemoryBound asserts the parallel memory guarantee:
// with Workers > 1 the analyzer holds at most
// window + 2*overlap + chunk - 1 records that a future window can reach
// plus one in-flight window copy of window + 2*overlap records per worker
// — the bound stays independent of trace length, and every window copy
// goes back to the trace pool by Finish.
func TestParallelStreamMemoryBound(t *testing.T) {
	const window, chunk, workers = 500, 128, 4
	peaks := make(map[int]int)
	for _, n := range []int{4000, 8000} {
		tr := traceFor(t, uarch.Baseline(), "458.sjeng", n)
		opts := WindowOptions{Window: window, Workers: workers}
		overlap, err := opts.effectiveOverlap()
		if err != nil {
			t.Fatal(err)
		}
		pool := pipetrace.TracePoolStats()
		sa, err := NewStreamAnalyzer(opts)
		if err != nil {
			t.Fatal(err)
		}
		feedTrace(t, sa, tr, chunk)
		bound := window + 2*overlap + chunk - 1 + workers*(window+2*overlap)
		if peak := sa.PeakBufferedRecords(); peak > bound {
			t.Fatalf("n=%d: peak %d records exceeds parallel bound %d (window=%d overlap=%d chunk=%d workers=%d)",
				n, peak, bound, window, overlap, chunk, workers)
		}
		if _, _, err := sa.Finish(tr.Cycles); err != nil {
			t.Fatal(err)
		}
		if held := len(sa.chunks); held != 0 {
			t.Fatalf("n=%d: %d chunks leaked past Finish", n, held)
		}
		if live := sa.bufferedRecords(); live != 0 {
			t.Fatalf("n=%d: %d records still counted live past Finish", n, live)
		}
		assertTracesReturned(t, pool)
		peaks[n] = bound
	}
	if peaks[4000] != peaks[8000] {
		t.Fatalf("memory bound grew with trace length: %v", peaks)
	}
}

// assertTracesReturned fails unless every trace taken from the pool since
// the snapshot before has been released.
func assertTracesReturned(t *testing.T, before pipetrace.PoolStats) {
	t.Helper()
	after := pipetrace.TracePoolStats()
	if live, was := after.Gets-after.Puts, before.Gets-before.Puts; live != was {
		t.Fatalf("%d pooled traces live, %d before (window copies leaked)", live, was)
	}
}

// TestParallelStreamCloseMidStream: aborting an analyzer mid-flight, at
// one ring slot or several, waits out its in-flight windows, releases
// every chunk, and returns every window copy to the trace pool; Close
// stays idempotent.
func TestParallelStreamCloseMidStream(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "401.bzip2", 3000)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("k%d", workers), func(t *testing.T) {
			pool := pipetrace.TracePoolStats()
			sa, err := NewStreamAnalyzer(WindowOptions{Window: 200, Overlap: 64, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			feedTrace(t, sa, tr, 100)
			if sa.ring.live == 0 {
				t.Fatal("no window in flight before Close; the test exercises nothing")
			}
			sa.Close()
			sa.Close()
			if held := len(sa.chunks); held != 0 {
				t.Fatalf("%d chunks retained past Close", held)
			}
			if live := sa.bufferedRecords(); live != 0 {
				t.Fatalf("%d records counted live past Close", live)
			}
			assertTracesReturned(t, pool)
		})
	}
}

// TestWindowRingFoldsInOrderToFirstError drives the ring directly, at one
// slot and several, with two empty (failing) windows among valid ones: it
// must fold exactly the windows before the lowest failure, in order,
// whatever finishes first — the sequential loop's error and accumulator
// state — and close must still wait out everything in flight and return
// every window copy to the trace pool.
func TestWindowRingFoldsInOrderToFirstError(t *testing.T) {
	tr := traceFor(t, uarch.Baseline(), "458.sjeng", 1000)
	const window = 100
	chunks := []*pipetrace.Trace{tr}
	for _, workers := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("k%d", workers), func(t *testing.T) {
			pool := pipetrace.TracePoolStats()
			var wa windowAccum
			ring := newWindowRing(&wa, workers)
			defer ring.close()
			var err error
			for i := 0; i < 8 && err == nil; i++ {
				lo, hi := i*window, (i+1)*window
				if i == 5 || i == 7 {
					hi = lo // empty: buildInto fails
				}
				var slot *ringSlot
				if slot, err = ring.next(); err == nil {
					ring.start(slot, gather(chunks, lo, hi), 0, hi-lo)
				}
			}
			if err == nil {
				err = ring.drain()
			}
			if err == nil {
				t.Fatal("failing windows reported no error")
			}
			if wa.st.Windows != 5 {
				t.Fatalf("folded %d windows before the error, want 5", wa.st.Windows)
			}
			ring.close()
			if ring.copied != 0 {
				t.Fatalf("%d copied records counted past close", ring.copied)
			}
			assertTracesReturned(t, pool)
		})
	}
}
