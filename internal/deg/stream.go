package deg

import (
	"fmt"

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
// — per the pipetrace.Chunk contract, and releases it once every record
// in it has fallen out of reach of future windows. The caller must not
// touch a chunk after Feed returns.
//
// Parallel mode (WindowOptions.Workers > 1) pushes each sealed window
// into a window ring instead of analyzing it inline: the window's records
// [base, end) are copied, annotations included, into a pooled trace of
// the ring slot's own, and the sliding buffer evicts exactly as in
// sequential mode. At most Workers windows are in flight and results fold
// strictly in window order, so the Report and WindowStats stay
// bit-identical to the sequential run at any worker count, and the
// sequential memory bound grows by one window copy per worker (see
// PeakBufferedRecords).
type StreamAnalyzer struct {
	opts    WindowOptions
	overlap int

	wa windowAccum
	b  *buffers
	// ring analyzes sealed windows in parallel mode; nil when sequential.
	ring *windowRing

	// Sliding record buffer: buf holds records [lowest, seen) of the
	// global commit order; view aliases it for the graph builder.
	buf    []pipetrace.Record
	view   pipetrace.Trace
	lowest int // global seq of buf[0]
	seen   int // records fed so far

	// Retained chunks in commit order; a chunk is released when every one
	// of its records is below the live buffer (annotation slices in buf
	// alias the chunk arenas, so chunks must outlive their records).
	chunks []retainedChunk

	// nextLo is the global start of the first unanalyzed window.
	nextLo int

	// Trace-level aggregates mirroring Trace.Cycles fallbacks.
	firstF1 int64
	lastC   int64

	// peakBuffered is the high-water mark of live records — sliding buffer
	// plus in-flight window copies (see PeakBufferedRecords for the bound).
	peakBuffered int

	closed bool
	err    error
}

type retainedChunk struct {
	c   *pipetrace.Chunk
	end int // global seq one past the chunk's last record
}

// NewStreamAnalyzer validates the options and builds an analyzer. The
// overlap is resolved eagerly — an explicit overlap smaller than the
// config's reorder window errors here, before any simulation runs.
func NewStreamAnalyzer(opts WindowOptions) (*StreamAnalyzer, error) {
	overlap, err := opts.effectiveOverlap()
	if err != nil {
		return nil, err
	}
	s := &StreamAnalyzer{
		opts:    opts,
		overlap: overlap,
		b:       bufPool.Get().(*buffers),
	}
	if opts.Workers > 1 {
		s.ring = newWindowRing(&s.wa, opts.Workers)
	}
	return s, nil
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
	s.chunks = append(s.chunks, retainedChunk{c: c, end: s.seen + len(c.Records)})
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
// In parallel mode a sealed window is pushed into the ring instead of
// analyzed inline; either way the buffer evicts immediately afterwards —
// pushed windows carry their own record copies.
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
		var err error
		if s.ring != nil {
			err = s.ring.pushCopy(s.buf[base-s.lowest:end-s.lowest], lo-base, hi-base)
			s.notePeak()
		} else {
			s.view.Records = s.buf
			err = s.wa.analyzeWindow(&s.view,
				base-s.lowest, end-s.lowest, lo-s.lowest, hi-s.lowest, s.b)
			s.view.Records = nil
		}
		if err != nil {
			return err
		}
		s.nextLo += s.opts.Window
		s.evict(s.nextLo - s.overlap)
	}
	return nil
}

// notePeak refreshes the buffered-record high-water mark.
func (s *StreamAnalyzer) notePeak() {
	s.peakBuffered = max(s.peakBuffered, s.BufferedRecords())
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
		err = s.wa.analyzeWindow(&s.view, 0, s.seen, 0, s.seen, s.b)
		s.view.Records = nil
	} else if err = s.drain(true); err == nil && s.ring != nil {
		err = s.ring.drain()
	}
	if err != nil {
		return nil, nil, err
	}
	return s.wa.finish(cycles, s.lastC-s.firstF1)
}

// Close waits out in-flight windows and releases the retained chunks,
// window copies and pooled buffers. Idempotent; implied by Finish. Use it
// directly only to abort an analyzer that will not reach Finish.
func (s *StreamAnalyzer) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.ring != nil {
		s.ring.close()
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
// buffer plus the copies held by in-flight parallel windows — the live
// working set.
func (s *StreamAnalyzer) BufferedRecords() int {
	n := len(s.buf)
	if s.ring != nil {
		n += s.ring.copied
	}
	return n
}

// PeakBufferedRecords returns the high-water mark of live records.
// Whenever Window > 0 it is bounded by
//
//	window + 2*overlap + chunkSize - 1                        (sequential)
//	window + 2*overlap + chunkSize - 1
//	       + workers * (window + 2*overlap)                   (parallel)
//
// — the streaming pipeline's memory guarantee: trace-length-independent
// either way, with parallel mode holding one window copy per worker.
func (s *StreamAnalyzer) PeakBufferedRecords() int { return s.peakBuffered }

// RetainedChunks returns how many chunks the analyzer currently holds.
func (s *StreamAnalyzer) RetainedChunks() int { return len(s.chunks) }
