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
// memory: the analyzer retains only the chunks holding records a
// still-unsealed window can reach (one window plus two context margins,
// plus the partially filled chunk), so peak memory is O(window + margin)
// instead of O(trace), and analysis overlaps simulation instead of
// trailing it.
//
// Lifecycle: NewStreamAnalyzer, then Feed every chunk in commit order,
// then exactly one Finish (which consumes the analyzer). Close aborts an
// analyzer that will not reach Finish, releasing retained chunks and
// in-flight windows; it is idempotent and implied by Finish.
//
// Chunk ownership: Feed takes ownership of its chunk, a pooled
// pipetrace.Trace, per the Trace ownership rules, and releases it once
// every record in it has fallen out of reach of future windows. The caller
// must not touch a chunk after Feed returns.
//
// Every sealed window runs on a window ring of max(WindowOptions.Workers,
// 1) slots: its records [base, end) are copied out of the retained chunks
// into a pooled trace of the slot's own, so the chunks can be released
// while the window runs. At most that many windows are in flight and
// results fold strictly in window order, so the Report and WindowStats
// are bit-identical to the sequential run at any worker count, and the
// live working set holds one window copy per slot (see
// PeakBufferedRecords).
type StreamAnalyzer struct {
	opts    WindowOptions
	overlap int

	wa   windowAccum
	ring *windowRing

	// Retained chunks in commit order, the last one ending at seen; a
	// chunk is released once all its records lie below floor.
	chunks []*pipetrace.Trace
	seen   int // records fed so far

	// nextLo is the global start of the first unsealed window.
	nextLo int

	// Trace-level aggregates mirroring Trace.Cycles fallbacks.
	firstF1 int64
	lastC   int64

	// peakBuffered is the high-water mark of bufferedRecords.
	peakBuffered int

	closed bool
	err    error
}

// NewStreamAnalyzer validates the options and builds an analyzer. The
// overlap is resolved eagerly — an explicit overlap smaller than the
// config's reorder window errors here, before any simulation runs.
func NewStreamAnalyzer(opts WindowOptions) (*StreamAnalyzer, error) {
	overlap, err := opts.effectiveOverlap()
	if err != nil {
		return nil, err
	}
	s := &StreamAnalyzer{opts: opts, overlap: overlap}
	s.ring = newWindowRing(&s.wa, max(opts.Workers, 1))
	return s, nil
}

// Feed appends one chunk of committed records and starts every window
// that seals — a window is sealed once its forward context margin has
// been fed. Feed takes ownership of the chunk. Chunks must arrive in
// commit order with densely increasing sequence numbers.
func (s *StreamAnalyzer) Feed(c *pipetrace.Trace) error {
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
	s.chunks = append(s.chunks, c)
	s.seen += len(c.Records)
	s.notePeak()
	s.err = s.drain(false)
	return s.err
}

// drain starts sealed windows on the ring. The boundaries replicate
// AnalyzeWindowed exactly: window [lo, lo+Window) with backward margin
// max(lo-overlap, 0) and forward margin min(hi+overlap, n). A non-final
// drain only starts windows whose forward margin has been fed — a window
// whose margin would be clamped by the trace end belongs to the final
// drain, where seen == n and the clamping matches the batch analyzer's.
// A Window of zero is one window over the whole trace, which only the
// final drain seals, with no margin; so is a Window covering the trace.
func (s *StreamAnalyzer) drain(final bool) error {
	window := s.opts.Window
	if window <= 0 {
		if !final {
			return nil
		}
		window = s.seen
	}
	for s.nextLo < s.seen {
		lo := s.nextLo
		hi, end := lo+window, lo+window+s.overlap
		if end > s.seen {
			if !final {
				return nil
			}
			hi, end = min(hi, s.seen), s.seen
		}
		base := max(lo-s.overlap, 0)
		slot, err := s.ring.next()
		if err != nil {
			return err
		}
		s.ring.start(slot, gather(s.chunks, base, end), lo-base, hi-base)
		s.notePeak()
		s.nextLo += window
		s.evict()
	}
	return nil
}

// gather copies records [base, end) of the stream out of the chunks
// holding them into a pooled trace. Records are self-contained, so the
// window reads nothing of the chunks.
func gather(chunks []*pipetrace.Trace, base, end int) *pipetrace.Trace {
	t := pipetrace.GetTrace(end - base)
	for _, c := range chunks {
		first := c.Records[0].Seq
		if lo, hi := max(base-first, 0), min(end-first, len(c.Records)); lo < hi {
			t.Records = append(t.Records, c.Records[lo:hi]...)
		}
	}
	return t
}

// floor is the lowest global sequence a future window's backward margin
// reaches.
func (s *StreamAnalyzer) floor() int {
	return min(max(s.nextLo-s.overlap, 0), s.seen)
}

// evict releases the chunks whose records all lie below the floor.
func (s *StreamAnalyzer) evict() {
	floor := s.floor()
	for len(s.chunks) > 0 {
		c := s.chunks[0]
		if c.Records[0].Seq+len(c.Records) > floor {
			return
		}
		c.Release()
		s.chunks = s.chunks[1:]
	}
}

// notePeak refreshes the buffered-record high-water mark.
func (s *StreamAnalyzer) notePeak() {
	s.peakBuffered = max(s.peakBuffered, s.bufferedRecords())
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
	if err := s.drain(true); err != nil {
		return nil, nil, err
	}
	if err := s.ring.drain(); err != nil {
		return nil, nil, err
	}
	return s.wa.finish(cycles, s.lastC-s.firstF1)
}

// Close waits out in-flight windows and releases the retained chunks and
// window copies. Idempotent; implied by Finish. Use it directly only to
// abort an analyzer that will not reach Finish.
func (s *StreamAnalyzer) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.ring.close()
	for _, c := range s.chunks {
		c.Release()
	}
	s.chunks = nil
}

// bufferedRecords returns the live working set: the retained records a
// future window can still reach, from the floor up, plus the copies held
// by in-flight windows.
func (s *StreamAnalyzer) bufferedRecords() int {
	n := s.ring.copied
	if len(s.chunks) > 0 {
		n += s.seen - s.floor()
	}
	return n
}

// PeakBufferedRecords returns the high-water mark of live records.
// Whenever Window > 0 it is bounded by
//
//	window + 2*overlap + chunkSize - 1 + max(workers, 1)*(window + 2*overlap)
//
// — the streaming pipeline's memory guarantee, independent of trace
// length: the records from the floor to the last fed one, plus one window
// copy per ring slot. The retained chunks hold at most chunkSize - 1
// records more, below the floor in the oldest chunk.
func (s *StreamAnalyzer) PeakBufferedRecords() int { return s.peakBuffered }
