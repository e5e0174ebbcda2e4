package deg

import "archexplorer/internal/pipetrace"

// windowRing runs the StreamAnalyzer's sealed windows. It keeps at most
// len(slots) windows in flight, each on its own goroutine with its own
// pooled buffers and its own copy of the window's records, and folds their
// results into the accumulator in window order on the caller's goroutine:
// window i runs in slot i % len(slots), so starting a window in a full
// ring first waits for, and folds, the oldest one. A one-slot ring is the
// sequential case, where a window overlaps only the caller's work until
// the next window seals. Folding stops at the first failed window, so the
// error a caller sees is the lowest failed window's, the one the
// sequential loop would have hit.
//
// The ring is driven from one goroutine, through next, start, drain and
// close.
type windowRing struct {
	wa     *windowAccum
	slots  []ringSlot
	oldest int // window index of the oldest in-flight window
	live   int // windows in flight
	copied int // records held by in-flight window copies
}

// ringSlot is one in-flight window: the pooled copy of its records, which
// the slot releases when the window retires, the owned span [lo, hi)
// within it, and its result.
type ringSlot struct {
	b      *buffers
	tr     *pipetrace.Trace
	lo, hi int
	res    windowResult
	err    error
	done   chan struct{} // one send per window, when the pure phase ends
}

func newWindowRing(wa *windowAccum, slots int) *windowRing {
	r := &windowRing{wa: wa, slots: make([]ringSlot, slots)}
	for i := range r.slots {
		r.slots[i].done = make(chan struct{}, 1)
	}
	return r
}

// next returns the slot the next window runs in, first retiring the
// oldest window when every slot is busy.
func (r *windowRing) next() (*ringSlot, error) {
	if r.live == len(r.slots) {
		if err := r.retire(true); err != nil {
			return nil, err
		}
	}
	s := &r.slots[(r.oldest+r.live)%len(r.slots)]
	if s.b == nil {
		s.b = bufPool.Get().(*buffers)
	}
	return s, nil
}

// start runs tr, a pooled trace the slot takes over, as the window that
// owns records [lo, hi) of it, on a goroutine of its own.
func (r *windowRing) start(s *ringSlot, tr *pipetrace.Trace, lo, hi int) {
	s.tr, s.lo, s.hi = tr, lo, hi
	s.res = windowResult{}
	r.copied += len(tr.Records)
	r.live++
	go func() {
		s.err = analyzeWindowPure(s.tr, 0, len(s.tr.Records), s.lo, s.hi, s.b, &s.res)
		s.done <- struct{}{}
	}()
}

// retire waits for the oldest in-flight window, frees its slot and, with
// fold set, folds its result or returns its error.
func (r *windowRing) retire(fold bool) error {
	s := &r.slots[r.oldest%len(r.slots)]
	<-s.done
	r.oldest++
	r.live--
	r.copied -= len(s.tr.Records)
	s.tr.Release()
	s.tr = nil
	if !fold {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	r.wa.fold(&s.res)
	return nil
}

// drain retires every in-flight window in order, returning the first
// error.
func (r *windowRing) drain() error {
	for r.live > 0 {
		if err := r.retire(true); err != nil {
			return err
		}
	}
	return nil
}

// close waits for every in-flight window without folding it and returns
// the slots' buffers and copies to their pools. Idempotent.
func (r *windowRing) close() {
	for r.live > 0 {
		r.retire(false)
	}
	for i := range r.slots {
		if b := r.slots[i].b; b != nil {
			bufPool.Put(b)
			r.slots[i].b = nil
		}
	}
}
