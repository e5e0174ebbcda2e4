package ooo

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"archexplorer/internal/uarch"
)

// uarchConfigWithWindow is a baseline config with the reorder window
// (the only fields issueRingSlots reads) overridden.
func uarchConfigWithWindow(rob, fq int) uarch.Config {
	cfg := uarch.Baseline()
	cfg.ROBEntries = rob
	cfg.FetchQueueUops = fq
	return cfg
}

// refEventHeap is the container/heap shadow: the seed's capPool used the
// stdlib heap (later transcribed into an inlined eventHeap), and its
// structure-dependent pop order among equal times is the pinned behaviour.
// Every differential test in this file compares the shipped SoA pool
// against this oracle.
type refEventHeap []freeEvent

func (h refEventHeap) Len() int           { return len(h) }
func (h refEventHeap) Less(i, j int) bool { return h[i].time < h[j].time }
func (h refEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x any)        { *h = append(*h, x.(freeEvent)) }
func (h *refEventHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// refCapPool is capPool's contract implemented directly on container/heap.
type refCapPool struct {
	capacity int
	h        refEventHeap
}

func (p *refCapPool) alloc() (int64, int) {
	if len(p.h) < p.capacity {
		return 0, -1
	}
	ev := heap.Pop(&p.h).(freeEvent)
	return ev.time, ev.owner
}

func (p *refCapPool) free(t int64, owner int) {
	heap.Push(&p.h, freeEvent{time: t, owner: owner})
}

// runPoolOps drives both pools through one op sequence and fails on the
// first diverging alloc. Each op is (free, time) or (alloc). Returns the
// number of allocs executed, so callers can assert coverage.
func runPoolOps(t *testing.T, capacity int, ops []poolOp) int {
	t.Helper()
	got := (*capPool)(nil).reset(capacity)
	want := &refCapPool{capacity: capacity}
	allocs := 0
	live := 0 // entries the sim semantics would consider outstanding
	for i, op := range ops {
		if op.isFree {
			got.free(op.time, i)
			want.free(op.time, i)
			live++
			continue
		}
		gt, go_ := got.alloc()
		wt, wo := want.alloc()
		allocs++
		if gt != wt || go_ != wo {
			t.Fatalf("op %d (capacity %d): alloc = (%d, %d), container/heap reference = (%d, %d)",
				i, capacity, gt, go_, wt, wo)
		}
		if gt != 0 || go_ != -1 {
			live--
		}
	}
	if lg, lw := len(got.times), len(want.h); lg != lw {
		t.Fatalf("capacity %d: pool sizes diverged: %d vs %d (live %d)", capacity, lg, lw, live)
	}
	return allocs
}

type poolOp struct {
	isFree bool
	time   int64
}

// TestCapPoolMatchesReferenceHeap drives random alloc/free interleavings —
// duplicate-heavy times, pool-full boundaries, capacity 1 — against the
// container/heap shadow. The sim itself only ever does strict alloc/free
// alternation once a pool fills; this test covers the wider contract so
// the pool stays a drop-in heap, not just a heap on today's call pattern.
// The capacities reach the deepest heaps the design space builds (ROB
// pools up to 256 entries, rename pools up to 272), so the sift's phantom
// right child is taken at every depth a campaign uses, with both parities
// of the last level.
func TestCapPoolMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, capacity := range []int{1, 2, 3, 8, 50, 192, 255, 256, 257, 272} {
		for trial := 0; trial < 20; trial++ {
			ops := make([]poolOp, 0, 2048)
			clock := int64(0)
			pending := 0
			for len(ops) < 2048 {
				// Bias toward frees until the pool is full, then mix, with
				// small time deltas so equal-time buckets are common.
				if pending < capacity && rng.Intn(3) > 0 {
					clock += int64(rng.Intn(3)) // 0 is frequent: duplicates
					jitter := int64(rng.Intn(5)) - 2
					ops = append(ops, poolOp{isFree: true, time: clock + jitter})
					pending++
				} else {
					ops = append(ops, poolOp{})
					if pending > 0 {
						pending--
					}
				}
			}
			if allocs := runPoolOps(t, capacity, ops); allocs == 0 {
				t.Fatalf("capacity %d trial %d: sequence exercised no allocs", capacity, trial)
			}
		}
	}
}

// TestCapPoolEmptyAndBoundary pins the exact boundary behaviour: allocs
// below capacity are unconstrained (0, -1), the transition to full is
// taken from the heap, and draining to a single element skips the sift.
func TestCapPoolEmptyAndBoundary(t *testing.T) {
	p := (*capPool)(nil).reset(2)
	if tm, o := p.alloc(); tm != 0 || o != -1 {
		t.Fatalf("alloc on empty pool = (%d, %d), want (0, -1)", tm, o)
	}
	p.free(10, 7)
	if tm, o := p.alloc(); tm != 0 || o != -1 {
		t.Fatalf("alloc below capacity = (%d, %d), want (0, -1)", tm, o)
	}
	p.free(5, 8)
	p.free(9, 9)
	if tm, o := p.alloc(); tm != 5 || o != 8 {
		t.Fatalf("first constrained alloc = (%d, %d), want (5, 8)", tm, o)
	}
	if tm, o := p.alloc(); tm != 9 || o != 9 {
		t.Fatalf("second constrained alloc = (%d, %d), want (9, 9)", tm, o)
	}
}

// FuzzCapPoolParity is the differential fuzzer the tentpole is pinned by:
// arbitrary byte strings decode into alloc/free interleavings over a
// fuzzer-chosen capacity, and the SoA pool must produce the identical
// (time, owner) pop sequence to the container/heap shadow.
//
// Byte encoding: byte 0 picks the capacity (1..64). Each following byte b
// is one op: b&1 selects free (1) or alloc (0); for frees, b>>1 is a time
// delta in [-15, 48] against a running clock, so duplicate times and
// out-of-order releases both occur naturally.
func FuzzCapPoolParity(f *testing.F) {
	f.Add([]byte{1, 3, 1, 0, 0})                         // capacity 1, fill, drain past empty
	f.Add([]byte{2, 1, 1, 1, 0, 0, 0})                   // duplicate times at capacity boundary
	f.Add([]byte{8, 5, 5, 5, 5, 5, 5, 5, 5, 0, 1, 0, 1}) // full pool, equal-time bucket
	f.Add([]byte{64, 2, 40, 2, 40, 0, 2, 0, 40, 0, 0})   // mixed deltas, interleaved
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := int(data[0])%64 + 1
		got := (*capPool)(nil).reset(capacity)
		want := &refCapPool{capacity: capacity}
		clock := int64(1 << 20) // headroom so negative deltas stay positive
		for i, b := range data[1:] {
			if b&1 == 1 {
				clock += int64(b>>1) - 15
				got.free(clock, i)
				want.free(clock, i)
				continue
			}
			gt, gOwner := got.alloc()
			wt, wOwner := want.alloc()
			if gt != wt || gOwner != wOwner {
				t.Fatalf("op %d (capacity %d): alloc = (%d, %d), container/heap reference = (%d, %d)",
					i, capacity, gt, gOwner, wt, wOwner)
			}
		}
	})
}

// TestFIFOPoolMatchesHeap checks the calendar pool against the heap shadow
// under the fetch queue's actual invariant — monotone non-decreasing
// release times — where the minimum is always the oldest entry and the
// two structures must agree on every popped time.
func TestFIFOPoolMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, capacity := range []int{1, 2, 7, 32} {
		fifo := (*fifoPool)(nil).reset(capacity)
		ref := &refCapPool{capacity: capacity}
		clock := int64(0)
		pending := 0
		for i := 0; i < 4096; i++ {
			if pending < capacity && rng.Intn(3) > 0 {
				clock += int64(rng.Intn(3))
				fifo.free(clock)
				ref.free(clock, i)
				pending++
				continue
			}
			// An alloc only consumes an entry when the pool is full — the
			// sim's contract, which is also what keeps len <= capacity.
			popped := pending == capacity
			gt := fifo.alloc()
			wt, _ := ref.alloc()
			if gt != wt {
				t.Fatalf("capacity %d op %d: fifo alloc %d, heap reference %d", capacity, i, gt, wt)
			}
			if popped {
				pending--
			}
		}
	}
}

// TestFIFOPoolRejectsNonMonotone pins the loud-failure contract: a release
// earlier than its predecessor would silently un-sort the ring, so it must
// panic instead.
func TestFIFOPoolRejectsNonMonotone(t *testing.T) {
	p := (*fifoPool)(nil).reset(4)
	p.free(10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order fifoPool release did not panic")
		}
	}()
	p.free(9)
}

// TestBWRingGrowthExact forces collisions on a deliberately tiny ring and
// checks every booked cycle against a ring large enough to never collide:
// growth must be a lossless migration, not a lossy reset.
func TestBWRingGrowthExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	small := (*bwRing)(nil).reset(2, 8)
	big := (*bwRing)(nil).reset(2, 1<<16)
	base := int64(0)
	for i := 0; i < 5000; i++ {
		// Wander with occasional large jumps so live cycles spread far
		// beyond 8 slots, plus backward re-bookings inside the window.
		switch rng.Intn(8) {
		case 0:
			base += int64(rng.Intn(300))
		case 1:
			base -= int64(rng.Intn(20))
			if base < 0 {
				base = 0
			}
		default:
			base += int64(rng.Intn(2))
		}
		gs := small.book(base)
		gb := big.book(base)
		if gs != gb {
			t.Fatalf("op %d: small ring booked cycle %d, reference booked %d (after %d growths)",
				i, gs, gb, small.grown)
		}
	}
	if small.grown == 0 {
		t.Fatal("test pattern never collided; growth path not exercised")
	}
}

// TestIssueRingSlots pins the config-derived sizing and its clamps.
func TestIssueRingSlots(t *testing.T) {
	cases := []struct {
		rob, fq int
		want    int
	}{
		{8, 4, 1 << 12},      // tiny config hits the floor
		{50, 32, 84 * 64},    // baseline: window*64, not a fixed 1<<17
		{4096, 512, 1 << 17}, // huge config hits the ceiling
	}
	for _, c := range cases {
		cfg := uarchConfigWithWindow(c.rob, c.fq)
		if got := issueRingSlots(cfg); got != c.want {
			t.Errorf("issueRingSlots(ROB=%d, FQ=%d) = %d, want %d", c.rob, c.fq, got, c.want)
		}
	}
}

// TestUnitPoolTieBreak pins the acquire tie-break: among equally-early
// units the lowest index wins, so annotation blame is deterministic.
func TestUnitPoolTieBreak(t *testing.T) {
	u := (*unitPool)(nil).reset(3)
	start, unit, prev := u.acquire(5, 2, 100)
	if start != 5 || unit != 0 || prev != -1 {
		t.Fatalf("first acquire = (%d, %d, %d), want (5, 0, -1)", start, unit, prev)
	}
	// Units 1 and 2 are both free at 0 — still tied, still lowest-first.
	_, unit, _ = u.acquire(5, 2, 101)
	if unit != 1 {
		t.Fatalf("second acquire picked unit %d, want 1", unit)
	}
	_, unit, _ = u.acquire(5, 2, 102)
	if unit != 2 {
		t.Fatalf("third acquire picked unit %d, want 2", unit)
	}
	// All units now free at 7: the tie between all three resolves to 0.
	start, unit, prev = u.acquire(6, 1, 103)
	if start != 7 || unit != 0 || prev != 100 {
		t.Fatalf("contended acquire = (%d, %d, %d), want (7, 0, 100)", start, unit, prev)
	}
}

// refUnitPool is unitPool's contract written with branches: an if keeps
// the first minimum, and another selects start and prev. It is the
// reference FuzzUnitPoolParity holds the branch-free pool to.
type refUnitPool struct {
	nextFree []int64
	lastUser []int
}

func (u *refUnitPool) acquire(at int64, occ int64, user int) (start int64, unit, prev int) {
	best := 0
	for i := 1; i < len(u.nextFree); i++ {
		if u.nextFree[i] < u.nextFree[best] {
			best = i
		}
	}
	start = at
	prev = -1
	if u.nextFree[best] > at {
		start = u.nextFree[best]
		prev = u.lastUser[best]
	}
	u.nextFree[best] = start + occ
	u.lastUser[best] = user
	return start, best, prev
}

// FuzzUnitPoolParity drives unitPool and refUnitPool through the same
// acquire/adjust sequences: every acquire must return the same (start,
// unit, prev), and the banks must end with the same nextFree and lastUser.
// TestUnitPoolTieBreak pins the lowest-index tie-break on one hand-made
// sequence; this holds it on tie-heavy sequences of any bank size the
// design space builds.
//
// Byte encoding: byte 0 picks the unit count (1..8). Each following byte b
// is one op. b&1 == 0 is an acquire at a running clock moved by
// (b>>1)&7 - 2 cycles, so equal and earlier request times are common; its
// occupancy is 1, or b>>5 + 2 cycles (a blocking unit) when b&16 is set.
// b&1 == 1 adjusts the last acquired unit to a start (b>>1)&7 cycles after
// the one acquire returned, as an issue-bandwidth delay does in the core.
func FuzzUnitPoolParity(f *testing.F) {
	f.Add([]byte{2, 4, 4, 4, 4, 4})               // three units, five acquires in one cycle: idle and busy ties
	f.Add([]byte{0, 4, 20, 2})                    // one unit, contended, blocking
	f.Add([]byte{3, 4, 4, 4, 4, 3, 4, 5, 4})      // four units; adjusts break and remake ties
	f.Add([]byte{7, 244, 4, 4, 4, 4, 4, 4, 4, 4}) // eight units: a blocking acquire, then a full bank
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		units := int(data[0])%8 + 1
		got := (*unitPool)(nil).reset(units)
		want := &refUnitPool{nextFree: make([]int64, units), lastUser: make([]int, units)}
		for i := range want.lastUser {
			want.lastUser[i] = -1
		}
		clock := int64(64) // headroom so backward moves stay positive
		last, lastStart, lastOcc := -1, int64(0), int64(0)
		for i, b := range data[1:] {
			if b&1 == 1 {
				if last >= 0 {
					start := lastStart + int64(b>>1&7)
					got.adjust(last, start, lastOcc)
					want.nextFree[last] = start + lastOcc
				}
				continue
			}
			clock += int64(b>>1&7) - 2
			occ := int64(1)
			if b&16 != 0 {
				occ = int64(b>>5) + 2
			}
			gs, gu, gp := got.acquire(clock, occ, i)
			ws, wu, wp := want.acquire(clock, occ, i)
			if gs != ws || gu != wu || gp != wp {
				t.Fatalf("op %d (%d units): acquire(%d, %d) = (%d, %d, %d), reference = (%d, %d, %d)",
					i, units, clock, occ, gs, gu, gp, ws, wu, wp)
			}
			last, lastStart, lastOcc = gu, gs, occ
		}
		if !slices.Equal(got.nextFree, want.nextFree) || !slices.Equal(got.lastUser, want.lastUser) {
			t.Fatalf("%d units: final bank nextFree %v lastUser %v, reference nextFree %v lastUser %v",
				units, got.nextFree, got.lastUser, want.nextFree, want.lastUser)
		}
	})
}

// TestUnitPoolAcquireAdjust pins the acquire/adjust contract: prev is the
// blocker observed at the REQUESTED start, and a later adjust moves the
// busy window without rewriting history — the next acquire sees the
// adjusted window but blames the adjusted instruction, not a re-derived
// occupant.
func TestUnitPoolAcquireAdjust(t *testing.T) {
	u := (*unitPool)(nil).reset(1)
	u.acquire(0, 4, 7) // unit busy until 4, last user 7

	start, unit, prev := u.acquire(2, 1, 8)
	if start != 4 || prev != 7 {
		t.Fatalf("contended acquire = (start %d, prev %d), want (4, 7)", start, prev)
	}
	// Issue bandwidth pushed the real start to 9 — past the old window.
	// adjust rebooks the occupancy; prev for instruction 8 stays 7 by
	// contract even though the unit was idle at cycle 9.
	u.adjust(unit, 9, 1)

	start, _, prev = u.acquire(9, 1, 9)
	if start != 10 || prev != 8 {
		t.Fatalf("post-adjust acquire = (start %d, prev %d), want (10, 8): adjust must move the window and keep blame on the adjusted user", start, prev)
	}
}

// TestStoreTableMatchesMap drives the open-addressed forwarding buffer
// against a plain map with the commit stage's access pattern: 8-aligned
// addresses (including 0), heavy overwrites, growth past the initial
// table, and misses.
func TestStoreTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := (*storeTable)(nil).reset()
	ref := make(map[uint64]storeEntry)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(4096)) * 8 // collisions and overwrites
		if rng.Intn(8) == 0 {
			addr = uint64(rng.Int63()) &^ 7 // spread keys to force growth
		}
		if rng.Intn(3) > 0 {
			e := storeEntry{seq: i, pReady: int64(i), commit: int64(i + 3)}
			st.put(addr, e)
			ref[addr] = e
		}
		got, ok := st.get(addr)
		want, wantOK := ref[addr]
		if ok != wantOK || got != want {
			t.Fatalf("op %d addr %#x: table = (%+v, %v), map = (%+v, %v)", i, addr, got, ok, want, wantOK)
		}
	}
	if _, ok := st.get(0); ok != func() bool { _, ok := ref[0]; return ok }() {
		t.Fatal("address 0 membership diverged from map")
	}
}
