// Package ooo is the cycle-level out-of-order superscalar core model that
// substitutes for the paper's modified gem5 O3 CPU.
//
// The model is trace-driven: the dynamic instruction stream (with resolved
// branch outcomes and effective addresses) comes from internal/workload,
// and the core resolves, in program order, the cycle at which each pipeline
// event of each instruction occurs, subject to the design point's resource
// constraints — pipeline widths, fetch buffering, branch prediction, ROB/
// IQ/LQ/SQ capacities, rename register pools, functional-unit and memory-
// port counts, and the cache hierarchy. Because later instructions' events
// depend only on earlier instructions' events, each instruction can be
// fully resolved before the next one, which both keeps the model fast and
// lets the scoreboard state the paper requires — WHICH instruction's
// released entry unblocked a stall — fall out exactly.
//
// Mispredicted branches stall the front end until the branch resolves and
// then pay a refill redirect; wrong-path instructions are not simulated
// (they cannot be derived from a correct-path trace), which slightly
// understates misprediction cost but preserves its critical-path structure.
package ooo

import "fmt"

// freeEvent is one resource entry becoming available. The hot capPool
// stores times and owners in parallel arrays; this struct form is the
// interchange type of the reference-heap shadow used by the differential
// tests and FuzzCapPoolParity.
type freeEvent struct {
	time  int64 // cycle at which the entry is usable again
	owner int   // sequence number of the releasing instruction
}

// capPool models a capacity-constrained structure (ROB, IQ, LQ, SQ, rename
// register pools) whose entries are allocated in program order and freed at
// arbitrary times. Allocation takes the earliest-free entry; if the pool is
// not yet full the allocation is unconstrained.
//
// The pool IS a binary min-heap over time — and has to be. The obvious
// faster structure, a calendar/bucket queue popping same-time events in a
// value-defined order (FIFO, or lowest owner first), is observably wrong:
// which same-time entry pops is structure-dependent in container/heap, the
// popped owner feeds the producer annotations whenever the pool is the
// stall reason, and on the parity corpus ~30% of those stall-visible pops
// disagree between heap order and any per-bucket value order (measured;
// see DESIGN.md §15). So the layout evolution of the seed's container/heap
// is transcribed exactly, and the speedup is taken inside the
// transcription instead: times and owners live in parallel arrays so the
// sift's compare chain walks a dense 8-byte lane, and both sifts carry the
// moving element through a hole (one store per level) instead of swapping
// (four 16-byte moves per level). Equivalence is pinned three ways: the
// inductive argument in DESIGN.md §15, the differential fuzzer
// (FuzzCapPoolParity) against a live container/heap shadow, and the seed
// fingerprints.
type capPool struct {
	capacity int
	times    []int64 // heap-ordered release cycles
	owners   []int   // owners[i] released the entry freeing at times[i]
}

// reset empties the pool for a structure of the given capacity, reusing
// its arrays when they are large enough, and returns it; a nil p
// allocates. The pool never holds more than capacity entries, so the
// arrays never grow during a run.
func (p *capPool) reset(capacity int) *capPool {
	if p == nil {
		p = new(capPool)
	}
	if cap(p.times) < capacity {
		p.times = make([]int64, 0, capacity)
		p.owners = make([]int, 0, capacity)
	}
	p.capacity = capacity
	p.times, p.owners = p.times[:0], p.owners[:0]
	return p
}

// alloc reserves one entry and returns the earliest cycle the entry is
// available plus the instruction that released it (-1 when unconstrained).
// The caller must later pass the entry's own release to free.
func (p *capPool) alloc() (int64, int) {
	n := len(p.times)
	if n < p.capacity {
		return 0, -1
	}
	t, o := p.times, p.owners
	rt, ro := t[0], o[0]
	n--
	lt, lo := t[n], o[n]
	// Sift the displaced last element down from the root. Same child
	// choice as container/heap's down (left child on equal times) and same
	// strict-less stop condition, so the resulting array layout is
	// identical; only the data movement differs — the element rides in
	// registers and path entries shift up through the hole, instead of
	// four 16-byte swap moves per level. The child is chosen by adding the
	// comparison as 0/1 (b2i), not by branching on it: among tied,
	// jittered release times its outcome is hard to predict.
	//
	// There is no j+1 < n test. Index n still holds lt (writes land only
	// on i < n), so when the last internal node has only a left child its
	// compare reads lt as a phantom right child. If lt < t[n-1], j becomes
	// n and t[n] >= lt stops the sift at i — where container/heap stops
	// too, since there t[n-1] > lt. Otherwise the left child is chosen, as
	// in container/heap.
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		j += b2i(t[j+1] < t[j])
		if t[j] >= lt {
			break
		}
		t[i], o[i] = t[j], o[j]
		i = j
	}
	t[i], o[i] = lt, lo
	// Reslice without capping the capacity: reset reuses the arrays for
	// the next design point's pool, which may be larger.
	p.times, p.owners = t[:n], o[:n]
	return rt, ro
}

// b2i is 1 for true and 0 for false. It inlines to a flag-to-register set
// (SETcc), with no branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// free registers that owner releases one entry at time tm.
func (p *capPool) free(tm int64, owner int) {
	t := append(p.times, tm)
	o := append(p.owners, owner)
	// Sift up through the hole: strict-less against the parent, exactly
	// container/heap's up.
	j := len(t) - 1
	for j > 0 {
		i := (j - 1) / 2
		if t[i] <= tm {
			break
		}
		t[j], o[j] = t[i], o[i]
		j = i
	}
	t[j], o[j] = tm, owner
	p.times, p.owners = t, o
}

// fifoPool is the calendar-queue capacity pool for structures whose two
// extra invariants make the heap unnecessary: release times arrive in
// non-decreasing order (the releasing stage is in-order), and the popped
// owner is never observed by any caller. Under monotone insertion the
// multiset minimum is simply the oldest entry, so alloc reads a ring
// cursor — O(1), no sift — and stays bit-exact with the heap on the only
// field it exposes, the release time. The fetch queue qualifies: decode
// frees it at the in-order DC+1 cycle, and fetch discards the owner (fetch
// stalls are attributed through the F stamps themselves, not through a
// pool annotation).
//
// Both invariants are enforced, not assumed: free panics on a
// non-monotone release (which would silently un-sort the ring), and alloc
// does not return an owner at all, so a future caller that needs one
// cannot compile against this type.
type fifoPool struct {
	times    []int64 // power-of-two ring of release cycles, oldest at head
	mask     int
	head     int
	n        int
	capacity int
	last     int64 // newest release accepted, for the monotone check
}

// reset empties the pool for a structure of the given capacity, reusing
// its ring when it is large enough, and returns it; a nil p allocates.
func (p *fifoPool) reset(capacity int) *fifoPool {
	size := 1
	for size < capacity {
		size <<= 1
	}
	if p == nil {
		p = new(fifoPool)
	}
	*p = fifoPool{times: zeroed(p.times, size), mask: size - 1, capacity: capacity}
	return p
}

// alloc reserves one entry and returns the earliest cycle it is available
// (0 when the pool is not yet full, i.e. unconstrained).
func (p *fifoPool) alloc() int64 {
	if p.n < p.capacity {
		return 0
	}
	t := p.times[p.head]
	p.head = (p.head + 1) & p.mask
	p.n--
	return t
}

// free registers one entry release at time t. Releases must be
// non-decreasing in t — that is what lets alloc pop a cursor instead of
// sifting a heap — and the pool fails loudly if the contract breaks.
func (p *fifoPool) free(t int64) {
	if t < p.last {
		panic(fmt.Sprintf("ooo: fifoPool release out of order: %d after %d (in-order release contract broken)", t, p.last))
	}
	if p.n > p.mask {
		panic(fmt.Sprintf("ooo: fifoPool overflow: %d live entries exceed ring for capacity %d", p.n+1, p.capacity))
	}
	p.last = t
	p.times[(p.head+p.n)&p.mask] = t
	p.n++
}

// unitPool models a small bank of execution units (ALUs, dividers, cache
// ports). acquire picks the earliest-free unit, returns when it is free and
// who used it last, and occupies it for occ cycles starting no earlier than
// at.
//
// Contract (pinned by TestUnitPoolTieBreak / TestUnitPoolAcquireAdjust and
// by the seed fingerprints):
//
//   - Tie-break: among equally-early units the LOWEST index wins (the scan
//     keeps the first minimum it sees).
//   - The returned prev is the unit's last occupant at the REQUESTED
//     start: the wait the scheduler observed when it picked the unit. If
//     issue-bandwidth limits later delay the actual start and the caller
//     rebooks via adjust, prev is deliberately not re-derived — the DEG
//     edge blames the occupant that made the instruction wait at selection
//     time, which is the seed's annotation semantics, even if that
//     occupant's window has drained by the adjusted start.
type unitPool struct {
	nextFree []int64
	lastUser []int
}

// reset returns the bank to n idle, never-used units, reusing its arrays
// when they are large enough, and returns it; a nil u allocates.
func (u *unitPool) reset(n int) *unitPool {
	if u == nil {
		u = new(unitPool)
	}
	u.nextFree = zeroed(u.nextFree, n)
	u.lastUser = zeroed(u.lastUser, n)
	for i := range u.lastUser {
		u.lastUser[i] = -1
	}
	return u
}

// acquire books the earliest-available unit for occ cycles beginning at
// max(at, unit free time) on behalf of user. It returns the start cycle,
// the chosen unit, and the previous user when the unit was still busy at
// the requested time (-1 when the unit was already idle, i.e. no
// contention). If the caller's event is further delayed (issue-bandwidth
// limits), it must rebook the unit with adjust so later consumers observe
// the true occupancy window.
func (u *unitPool) acquire(at int64, occ int64, user int) (start int64, unit, prev int) {
	// The scan keeps the first minimum by masking, not by branching: a
	// strictly earlier unit moves best to i (mask all ones), a tie or a
	// later one leaves it (mask zero).
	nf := u.nextFree
	best, bt := 0, nf[0]
	for i := 1; i < len(nf); i++ {
		best += (i - best) & -b2i(nf[i] < bt)
		bt = min(bt, nf[i])
	}
	start = max(at, bt)
	prev = u.lastUser[best]
	if bt <= at {
		prev = -1
	}
	nf[best] = start + occ
	u.lastUser[best] = user
	return start, best, prev
}

// adjust moves a just-acquired unit's busy window to the actual start time.
// It does not touch lastUser: the unit still belongs to the same user, and
// that user's contention annotation was fixed at acquire time (see the
// type comment).
func (u *unitPool) adjust(unit int, start, occ int64) {
	u.nextFree[unit] = start + occ
}

// bwRing tracks per-cycle bandwidth for events that are not monotone in
// time (issue). Slots are addressed by cycle modulo the ring size with
// lazy reset: a slot whose recorded cycle is older than the cycle being
// booked belongs to a drained part of the window and is reclaimed.
//
// That reclamation is only sound while every live booking cycle fits
// inside one ring span. The ring is therefore sized from the config's
// actual reorder window (see issueRingSlots in core.go) rather than a
// fixed constant, and book checks the unsafe direction explicitly:
// finding a slot that holds a NEWER cycle than the one being booked means
// two live cycles collided and the older one's counts were already
// discarded. Rather than silently corrupting issue-bandwidth accounting,
// the ring rebuilds itself at twice the size — an exact, lossless
// migration, since remapping into a larger power-of-two ring keeps
// distinct cycles distinct — and a runaway guard fails loudly if growth
// ever exceeds the hard cap.
//
// The ring also records the latest cycle it has booked. A booking touches
// only the slots of the cycles it passes over on its way to the cycle it
// books, so while that cycle is below the ring size every slot past it is
// still zero, and reset clears only the booked prefix.
type bwRing struct {
	cycle  []int64
	used   []int32
	width  int32
	mask   int64
	latest int64 // latest cycle booked since reset, -1 before the first
	grown  int   // growth events, surfaced to tests
}

// maxBWRingSlots is the runaway guard: needing growth beyond this means
// the reorder-window bound reasoning is broken, not that the config is
// big.
const maxBWRingSlots = 1 << 22

// reset empties the ring for a stage of the given width with at least
// slots slots and returns it; a nil r allocates. It clears only the prefix
// the last run booked (the whole ring once bookings wrapped), after which
// every slot of the backing arrays is zero, and reslices them by capacity:
// a ring that grew keeps its larger arrays for the next run.
func (r *bwRing) reset(width int, slots int) *bwRing {
	size := int64(1)
	for size < int64(slots) {
		size <<= 1
	}
	if r == nil {
		r = new(bwRing)
	}
	if n := min(r.latest+1, int64(len(r.cycle))); n > 0 {
		clear(r.cycle[:n])
		clear(r.used[:n])
	}
	if int64(cap(r.cycle)) < size {
		r.cycle, r.used = make([]int64, size), make([]int32, size)
	}
	*r = bwRing{
		cycle:  r.cycle[:size],
		used:   r.used[:size],
		width:  int32(width),
		mask:   size - 1,
		latest: -1,
	}
	return r
}

// book finds the first cycle >= t with spare bandwidth and consumes a slot.
func (r *bwRing) book(t int64) int64 {
	for {
		slot := t & r.mask
		c := r.cycle[slot]
		if c != t {
			if c > t {
				// Collision with a live newer cycle: reclaiming this slot
				// would lose its counts. Grow and retry — the booking
				// being attempted has consumed nothing yet, so the
				// migration is exact.
				r.grow()
				continue
			}
			r.cycle[slot] = t
			r.used[slot] = 0
		}
		if r.used[slot] < r.width {
			r.used[slot]++
			r.latest = max(r.latest, t)
			return t
		}
		t++
	}
}

// grow doubles the ring and migrates every live slot. Distinct cycles
// stay distinct: two old slots can only land on the same new slot if
// their cycles agree modulo the new size, which implies they agreed
// modulo the old size — i.e. they were the same slot.
func (r *bwRing) grow() {
	newSize := (r.mask + 1) * 2
	if newSize > maxBWRingSlots {
		panic(fmt.Sprintf("ooo: issue bandwidth ring exceeded %d slots; live issue-cycle spread is beyond the reorder-window bound", maxBWRingSlots))
	}
	cycle := make([]int64, newSize)
	used := make([]int32, newSize)
	newMask := newSize - 1
	for s := int64(0); s <= r.mask; s++ {
		if r.used[s] == 0 {
			continue
		}
		ns := r.cycle[s] & newMask
		cycle[ns] = r.cycle[s]
		used[ns] = r.used[s]
	}
	r.cycle, r.used, r.mask = cycle, used, newMask
	r.grown++
}

// inorderBW limits a pipeline stage whose event times are monotone
// (fetch, decode, rename, dispatch, commit).
type inorderBW struct {
	width int
	cur   int64
	used  int
}

// book returns the first cycle >= t with a free slot and consumes it.
// t must be >= any previously returned cycle minus the stage's reordering
// window (stages using this helper are strictly in order).
func (b *inorderBW) book(t int64) int64 {
	if t > b.cur {
		b.cur, b.used = t, 0
	}
	if b.used < b.width {
		b.used++
		return b.cur
	}
	b.cur++
	b.used = 1
	return b.cur
}

// storeTable is the in-flight store-forwarding buffer: an open-addressed
// hash table from 8-byte-aligned addresses to the youngest committed store
// at that address. It replaces a map[uint64]storeEntry on the hot path —
// same overwrite-on-commit, lookup-on-load semantics, without per-op
// hashing through the runtime map or GC write barriers. Keys are stored
// as addr|1 (addresses are masked to 8-byte alignment, so the tag bit is
// free), leaving 0 as the empty marker even for address 0.
type storeTable struct {
	keys []uint64
	vals []storeEntry
	mask uint64
	n    int
}

// reset empties the table and returns it; a nil s allocates one of the
// initial size. A table that grew keeps its size. Only the keys are
// cleared: a value is read only under a matching key, and put writes both.
func (s *storeTable) reset() *storeTable {
	if s == nil {
		const initSize = 1024
		return &storeTable{
			keys: make([]uint64, initSize),
			vals: make([]storeEntry, initSize),
			mask: initSize - 1,
		}
	}
	clear(s.keys)
	s.n = 0
	return s
}

// hashAddr spreads the aligned-address key over the table (Fibonacci
// multiplicative hashing; the low bits of an aligned address carry no
// entropy on their own).
func hashAddr(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15
	return k ^ (k >> 29)
}

// get returns the entry for addr (which must be 8-byte aligned).
func (s *storeTable) get(addr uint64) (storeEntry, bool) {
	k := addr | 1
	i := hashAddr(k) & s.mask
	for {
		kk := s.keys[i]
		if kk == k {
			return s.vals[i], true
		}
		if kk == 0 {
			return storeEntry{}, false
		}
		i = (i + 1) & s.mask
	}
}

// put inserts or overwrites the entry for addr (8-byte aligned).
func (s *storeTable) put(addr uint64, v storeEntry) {
	k := addr | 1
	i := hashAddr(k) & s.mask
	for {
		kk := s.keys[i]
		if kk == k {
			s.vals[i] = v
			return
		}
		if kk == 0 {
			s.keys[i] = k
			s.vals[i] = v
			s.n++
			if uint64(s.n)*4 > (s.mask+1)*3 {
				s.rehash()
			}
			return
		}
		i = (i + 1) & s.mask
	}
}

// rehash doubles the table and reinserts every key.
func (s *storeTable) rehash() {
	oldKeys, oldVals := s.keys, s.vals
	size := (s.mask + 1) * 2
	s.keys = make([]uint64, size)
	s.vals = make([]storeEntry, size)
	s.mask = size - 1
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := hashAddr(k) & s.mask
		for s.keys[j] != 0 {
			j = (j + 1) & s.mask
		}
		s.keys[j] = k
		s.vals[j] = oldVals[i]
	}
}

// zeroed returns s resliced to n zero elements, reusing its backing array
// when the capacity suffices.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
