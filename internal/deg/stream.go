package deg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"archexplorer/internal/pipetrace"
)

// StreamAnalyzer consumes the simulator's streamed record chunks
// (ooo.RunStream) and produces the same Report and WindowStats that
// AnalyzeWindowed would produce over the materialized trace — bit for bit
// at equal window/overlap, because both run the identical windowAccum
// stitching core over identical window boundaries. The difference is
// memory: the analyzer retains only the records a still-unanalyzed window
// can reach (one window plus two context margins, plus the partially
// filled chunk), so peak memory is O(window + margin) instead of
// O(trace), and analysis overlaps simulation instead of trailing it.
//
// Lifecycle: NewStreamAnalyzer, then Feed every chunk in commit order,
// then exactly one Finish (which consumes the analyzer). Close aborts an
// analyzer that will not reach Finish, releasing retained chunks and
// pooled buffers; it is idempotent and implied by Finish.
//
// Chunk ownership: Feed takes ownership of its chunk — records and arena
// — per the pipetrace.Chunk contract, and drops its reference once every
// record in it has fallen out of reach of future windows (parallel
// workers pin the chunks behind their window with extra references). The
// caller must not touch a chunk after Feed returns.
//
// Parallel mode (WindowOptions.Workers > 1) dispatches each sealed window
// to a worker pool instead of analyzing it inline: the window's records
// [base, end) are copied into a pooled task, the chunks backing their
// annotation slices are retained, and the sliding buffer evicts exactly as
// in sequential mode. Results fold back strictly in window order, so the
// Report and WindowStats stay bit-identical to the sequential run at any
// worker count. A bounded in-flight cap (InflightCap, 2×workers)
// backpressures dispatch, degrading the sequential memory bound gracefully
// to window + 2·overlap + chunk − 1 + inflight·(window + 2·overlap)
// records.
type StreamAnalyzer struct {
	opts    WindowOptions
	overlap int

	wa windowAccum
	b  *buffers

	// Sliding record buffer: buf holds records [lowest, seen) of the
	// global commit order; view aliases it for the graph builder.
	buf    []pipetrace.Record
	view   pipetrace.Trace
	lowest int // global seq of buf[0]
	seen   int // records fed so far

	// Retained chunks in commit order; the analyzer's reference drops when
	// every one of a chunk's records is below the live buffer (annotation
	// slices in buf alias the chunk arenas, so chunks must outlive their
	// records).
	chunks []retainedChunk

	// nextLo is the global start of the first unanalyzed window.
	nextLo int

	// Trace-level aggregates mirroring Trace.Cycles fallbacks.
	firstF1 int64
	lastC   int64

	// peakBuffered is the high-water mark of live records — sliding buffer
	// plus in-flight task copies (see PeakBufferedRecords for the bound).
	peakBuffered int

	// Parallel mode. The feed goroutine dispatches tasks; workers run the
	// pure phase and fold completed windows back in window order under mu.
	workers  int                 // resolved worker count (1 = sequential)
	started  bool                // pool is running
	tasks    chan *windowTask    // dispatch queue, capacity inflightCap
	inflight chan struct{}       // tokens: dispatch→fold, bounds live tasks
	wg       sync.WaitGroup      // worker goroutines
	taskRecs atomic.Int64        // records held by in-flight task copies
	mu       sync.Mutex          // guards pending, nextFold, wa, werr
	pending  map[int]*windowTask // completed, waiting for in-order fold
	nextFold int                 // next window index to fold
	widx     int                 // next window index to dispatch
	werr     error               // first (lowest-window) worker error
	werrIdx  int

	closed bool
	err    error
}

type retainedChunk struct {
	c          *pipetrace.Chunk
	start, end int // global seq range [start, end) of the chunk's records
}

// windowTask carries one sealed window to a worker: a pooled copy of the
// records [base, end), task-local window bounds, and references on the
// chunks whose arenas the records' annotation slices alias.
type windowTask struct {
	idx      int
	recs     []pipetrace.Record
	lo, hi   int // window proper, as indices into recs
	chunks   []*pipetrace.Chunk
	res      windowResult
	enqueued time.Time
}

var taskPool = sync.Pool{New: func() any { return new(windowTask) }}

func (t *windowTask) recycle() {
	t.recs = t.recs[:0]
	t.chunks = t.chunks[:0]
	t.res = windowResult{}
	taskPool.Put(t)
}

// NewStreamAnalyzer validates the options and builds an analyzer. The
// overlap is resolved eagerly — an explicit overlap smaller than the
// config's reorder window errors here, before any simulation runs.
// Worker goroutines (for Workers > 1) start lazily at the first sealed
// window, so a short trace, analyzed as one whole-trace window,
// never spawns them.
func NewStreamAnalyzer(opts WindowOptions) (*StreamAnalyzer, error) {
	overlap, err := opts.effectiveOverlap()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	return &StreamAnalyzer{
		opts:    opts,
		overlap: overlap,
		workers: workers,
		b:       bufPool.Get().(*buffers),
	}, nil
}

// Workers returns the resolved worker count (1 = sequential).
func (s *StreamAnalyzer) Workers() int { return s.workers }

// InflightCap returns how many dispatched-but-unfolded windows parallel
// mode allows before Feed backpressures; 0 in sequential mode. Each
// in-flight window holds a copy of up to window + 2·overlap records.
func (s *StreamAnalyzer) InflightCap() int {
	if s.workers <= 1 {
		return 0
	}
	return 2 * s.workers
}

// Feed appends one chunk of committed records and analyzes every window
// that seals — a window is sealed once its forward context margin is fully
// buffered. Feed takes ownership of the chunk. Chunks must arrive in
// commit order with densely increasing sequence numbers.
func (s *StreamAnalyzer) Feed(c *pipetrace.Chunk) error {
	if s.closed || s.err != nil {
		c.Release()
		if s.err != nil {
			return s.err
		}
		return fmt.Errorf("deg: Feed on a finished stream analyzer")
	}
	if len(c.Records) == 0 {
		c.Release()
		return nil
	}
	if got := c.Records[0].Seq; got != s.seen {
		c.Release()
		s.err = fmt.Errorf("deg: stream gap: chunk starts at seq %d, expected %d", got, s.seen)
		return s.err
	}
	if s.seen == 0 {
		s.firstF1 = c.Records[0].Stamp[pipetrace.SF1]
	}
	s.lastC = c.Records[len(c.Records)-1].Stamp[pipetrace.SC]
	s.buf = append(s.buf, c.Records...)
	s.chunks = append(s.chunks, retainedChunk{c: c, start: s.seen, end: s.seen + len(c.Records)})
	s.seen += len(c.Records)
	s.notePeak()
	if s.opts.Window > 0 {
		if err := s.drain(false); err != nil {
			s.err = err
			return err
		}
	}
	return nil
}

// drain analyzes sealed windows. The boundaries replicate AnalyzeWindowed
// exactly: window [lo, lo+Window) with backward margin max(lo-overlap, 0)
// and forward margin min(hi+overlap, n). A non-final drain only runs
// windows whose forward margin is fully buffered — a window whose margin
// would be clamped by the trace end belongs to the final drain, where
// seen == n and the clamping matches the batch analyzer's.
//
// In parallel mode a sealed window is dispatched to the pool instead of
// analyzed inline; either way the buffer evicts immediately afterwards —
// dispatched windows carry their own record copies.
func (s *StreamAnalyzer) drain(final bool) error {
	for s.nextLo < s.seen {
		lo := s.nextLo
		hi := lo + s.opts.Window
		if hi > s.seen {
			if !final {
				return nil
			}
			hi = s.seen
		}
		end := hi + s.overlap
		if end > s.seen {
			if !final {
				return nil
			}
			end = s.seen
		}
		base := lo - s.overlap
		if base < 0 {
			base = 0
		}
		if s.workers > 1 {
			if err := s.dispatch(base, end, lo, hi); err != nil {
				return err
			}
		} else {
			s.view.Records = s.buf
			err := s.wa.analyzeWindow(&s.view, s.opts.Options,
				base-s.lowest, end-s.lowest, lo-s.lowest, hi-s.lowest, s.b)
			s.view.Records = nil
			if err != nil {
				return err
			}
		}
		s.nextLo += s.opts.Window
		s.evict(s.nextLo - s.overlap)
	}
	return nil
}

// dispatch hands one sealed window to the worker pool: copy its records
// out of the sliding buffer into a pooled task, retain the chunks backing
// their annotation slices, and enqueue. Blocks when InflightCap windows
// are dispatched but not yet folded — the backpressure that bounds memory.
func (s *StreamAnalyzer) dispatch(base, end, lo, hi int) error {
	s.mu.Lock()
	werr := s.werr
	s.mu.Unlock()
	if werr != nil {
		return werr
	}
	if !s.started {
		s.startWorkers()
	}
	s.inflight <- struct{}{} // released when the window folds (or errors)
	t := taskPool.Get().(*windowTask)
	t.idx = s.widx
	s.widx++
	t.recs = append(t.recs[:0], s.buf[base-s.lowest:end-s.lowest]...)
	t.lo, t.hi = lo-base, hi-base
	// The copied records' annotation slices alias the arenas of every chunk
	// overlapping [base, end); pin those until the pure phase is done.
	for _, rc := range s.chunks {
		if rc.end <= base {
			continue
		}
		if rc.start >= end {
			break
		}
		rc.c.Retain()
		t.chunks = append(t.chunks, rc.c)
	}
	s.taskRecs.Add(int64(len(t.recs)))
	s.notePeak()
	if s.opts.OnQueueWait != nil {
		t.enqueued = time.Now()
	}
	s.tasks <- t
	return nil
}

// startWorkers spins up the pool on the first sealed window.
func (s *StreamAnalyzer) startWorkers() {
	s.started = true
	depth := s.InflightCap()
	s.tasks = make(chan *windowTask, depth)
	s.inflight = make(chan struct{}, depth)
	s.pending = make(map[int]*windowTask, depth)
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			b := bufPool.Get().(*buffers)
			defer bufPool.Put(b)
			for t := range s.tasks {
				s.runTask(t, b)
			}
		}()
	}
}

// stopWorkers closes the queue and waits for the pool to finish every
// queued task. Idempotent; only the feed goroutine calls it.
func (s *StreamAnalyzer) stopWorkers() {
	if !s.started {
		return
	}
	close(s.tasks)
	s.wg.Wait()
	s.started = false
}

// runTask executes the pure per-window phase on a worker and folds every
// completed window whose predecessors have all folded — the in-window-
// order accumulation that keeps parallel reports bit-identical. Each fold
// recycles its task and releases one in-flight token; a failed window
// releases its token immediately so dispatch cannot deadlock, and the
// lowest failed window's error is what Finish reports.
func (s *StreamAnalyzer) runTask(t *windowTask, b *buffers) {
	if s.opts.OnQueueWait != nil {
		s.opts.OnQueueWait(time.Since(t.enqueued))
	}
	var view pipetrace.Trace
	view.Records = t.recs
	err := analyzeWindowPure(&view, s.opts.Options, 0, len(t.recs), t.lo, t.hi, b, &t.res)
	// The pure phase is the last read of the records (and of the chunk
	// arenas their annotation slices alias); drop the pins now.
	for _, c := range t.chunks {
		c.Release()
	}
	t.chunks = t.chunks[:0]

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.werr == nil || t.idx < s.werrIdx {
			s.werr, s.werrIdx = err, t.idx
		}
		s.taskRecs.Add(-int64(len(t.recs)))
		t.recycle()
		<-s.inflight
		return
	}
	s.pending[t.idx] = t
	for {
		nt, ok := s.pending[s.nextFold]
		if !ok {
			return
		}
		delete(s.pending, s.nextFold)
		s.nextFold++
		s.wa.fold(&nt.res)
		s.taskRecs.Add(-int64(len(nt.recs)))
		nt.recycle()
		<-s.inflight
	}
}

// notePeak refreshes the buffered-record high-water mark: the sliding
// buffer plus every in-flight task's record copy.
func (s *StreamAnalyzer) notePeak() {
	if n := len(s.buf) + int(s.taskRecs.Load()); n > s.peakBuffered {
		s.peakBuffered = n
	}
}

// evict drops records below the global sequence floor — no future window's
// backward margin reaches them — compacting the buffer and releasing the
// chunks whose records are all gone.
func (s *StreamAnalyzer) evict(floor int) {
	if floor <= s.lowest {
		return
	}
	k := floor - s.lowest
	if k > len(s.buf) {
		k = len(s.buf)
	}
	n := copy(s.buf, s.buf[k:])
	s.buf = s.buf[:n]
	s.lowest += k
	for len(s.chunks) > 0 && s.chunks[0].end <= s.lowest {
		s.chunks[0].c.Release()
		s.chunks = s.chunks[1:]
	}
}

// Finish analyzes the remaining tail windows and returns the stitched
// report, releasing every retained resource. cycles is the simulated
// runtime (ooo.Stats.Cycles); it plays the role AnalyzeWindowed reads from
// Trace.Cycles. Finish consumes the analyzer.
func (s *StreamAnalyzer) Finish(cycles int64) (*Report, *WindowStats, error) {
	if s.closed {
		return nil, nil, fmt.Errorf("deg: Finish on a finished stream analyzer")
	}
	defer s.Close()
	if s.err != nil {
		return nil, nil, s.err
	}
	if s.seen == 0 {
		return nil, nil, fmt.Errorf("deg: empty trace")
	}
	var err error
	if s.opts.Window <= 0 || s.opts.Window >= s.seen {
		// One window, mirroring AnalyzeWindowed: nothing was sealed
		// (sealing needs Window+overlap buffered records), so the buffer
		// still holds the entire trace.
		s.view.Records = s.buf
		err = s.wa.analyzeWindow(&s.view, s.opts.Options, 0, s.seen, 0, s.seen, s.b)
		s.view.Records = nil
	} else {
		err = s.drain(true)
	}
	// Parallel mode: wait for every dispatched window to run and fold
	// before reading the accumulator; a worker failure surfaces as the
	// lowest failed window's error, matching sequential error order.
	s.stopWorkers()
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	werr := s.werr
	s.mu.Unlock()
	if werr != nil {
		return nil, nil, werr
	}
	return s.wa.finish(cycles, s.lastC-s.firstF1)
}

// Close stops any workers, releases the retained chunks and pooled
// buffers, and recycles in-flight tasks. Idempotent; implied by Finish.
// Use it directly only to abort an analyzer that will not reach Finish.
func (s *StreamAnalyzer) Close() {
	if s.closed {
		return
	}
	s.closed = true
	// Workers drain the remaining queue (releasing their chunk pins as
	// each task's pure phase ends) before the analyzer's own references go.
	s.stopWorkers()
	for idx, t := range s.pending {
		s.taskRecs.Add(-int64(len(t.recs)))
		delete(s.pending, idx)
		t.recycle()
	}
	for i := range s.chunks {
		s.chunks[i].c.Release()
	}
	s.chunks = nil
	s.buf = nil
	if s.b != nil {
		bufPool.Put(s.b)
		s.b = nil
	}
}

// BufferedRecords returns the records currently held in the sliding
// buffer plus the copies carried by in-flight parallel tasks — the live
// working set.
func (s *StreamAnalyzer) BufferedRecords() int {
	return len(s.buf) + int(s.taskRecs.Load())
}

// PeakBufferedRecords returns the high-water mark of live records.
// Whenever Window > 0 it is bounded by
//
//	window + 2*overlap + chunkSize - 1                        (sequential)
//	window + 2*overlap + chunkSize - 1
//	       + InflightCap * (window + 2*overlap)               (parallel)
//
// — the streaming pipeline's memory guarantee: trace-length-independent
// either way, with parallel mode trading a bounded number of in-flight
// window copies for multicore scaling.
func (s *StreamAnalyzer) PeakBufferedRecords() int { return s.peakBuffered }

// RetainedChunks returns how many chunks the analyzer currently holds.
func (s *StreamAnalyzer) RetainedChunks() int { return len(s.chunks) }
