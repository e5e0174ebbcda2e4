package ooo

import (
	"context"
	"fmt"
	"sync"

	"archexplorer/internal/bpred"
	"archexplorer/internal/cache"
	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// Execution latencies (cycles) per operation class, and whether the unit is
// pipelined (occupancy 1) or blocking (occupancy = latency).
type fuSpec struct {
	lat       int64
	pipelined bool
	res       uarch.Resource
	valid     bool
}

// fuTable maps every isa.OpClass to its functional-unit spec. It is a dense
// array — one indexed load per instruction on the issue path, no map
// hashing — and init validates it exhaustively: a missing OpClass used to
// decay silently to the zero fuSpec (latency 0, non-pipelined, resource
// ResNone), corrupting timing without any error.
var fuTable = [isa.NumOpClasses]fuSpec{
	isa.OpIntAlu:  {lat: 1, pipelined: true, res: uarch.ResIntALU, valid: true},
	isa.OpBranch:  {lat: 1, pipelined: true, res: uarch.ResIntALU, valid: true},
	isa.OpNop:     {lat: 1, pipelined: true, res: uarch.ResIntALU, valid: true},
	isa.OpIntMult: {lat: 3, pipelined: true, res: uarch.ResIntMultDiv, valid: true},
	isa.OpIntDiv:  {lat: 20, pipelined: false, res: uarch.ResIntMultDiv, valid: true},
	isa.OpFpAlu:   {lat: 2, pipelined: true, res: uarch.ResFpALU, valid: true},
	isa.OpFpMult:  {lat: 4, pipelined: true, res: uarch.ResFpMultDiv, valid: true},
	isa.OpFpDiv:   {lat: 24, pipelined: false, res: uarch.ResFpMultDiv, valid: true},
	// Loads/stores compute the address on an ALU-like AGU slot modelled
	// inside the memory path; their fuTable entry covers the AGU.
	isa.OpLoad:  {lat: 1, pipelined: true, res: uarch.ResIntALU, valid: true},
	isa.OpStore: {lat: 1, pipelined: true, res: uarch.ResIntALU, valid: true},
}

func init() {
	if err := validateFUTable(); err != nil {
		panic(err)
	}
}

// validateFUTable checks that every operation class has a complete
// functional-unit spec, so a class added to the ISA without a table entry
// fails at process start instead of simulating with zero latency.
func validateFUTable() error {
	for c := 0; c < isa.NumOpClasses; c++ {
		spec := &fuTable[c]
		if !spec.valid {
			return fmt.Errorf("ooo: fuTable is missing OpClass %s", isa.OpClass(c))
		}
		if spec.lat < 1 {
			return fmt.Errorf("ooo: fuTable latency %d for %s must be >= 1", spec.lat, isa.OpClass(c))
		}
		if spec.res == uarch.ResNone {
			return fmt.Errorf("ooo: fuTable entry for %s has no resource", isa.OpClass(c))
		}
	}
	return nil
}

// redirectPenalty is the front-end refill delay after a misprediction
// squash, on top of waiting for the branch to resolve.
const redirectPenalty = 3

// Stats aggregates the activity counters the power model consumes.
type Stats struct {
	Cycles                       int64
	Committed                    uint64
	Fetched                      uint64
	FetchGroups                  uint64
	RenameOps                    uint64
	IssuedPerFU                  [uarch.NumResources]uint64
	BranchLookups, Mispredicts   uint64
	ICacheAccesses, ICacheMisses uint64
	DCacheAccesses, DCacheMisses uint64
	L2Accesses, L2Misses         uint64
	StoreForwards                uint64
	RenameStalls                 [uarch.NumResources]uint64 // instructions stalled per resource
}

// IPC returns the committed instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per branch lookup.
func (s *Stats) MispredictRate() float64 {
	if s.BranchLookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.BranchLookups)
}

// Core simulates one design point.
type Core struct {
	cfg  uarch.Config
	pred *bpred.Predictor
	hier *cache.Hierarchy

	// Program-order stage trackers.
	fetchBW, decodeBW, renameBW, dispatchBW, commitBW inorderBW
	issueBW                                           *bwRing

	// Capacity pools. The fetch queue is the one pool with monotone
	// releases and an unobserved pop owner, so it gets the O(1) calendar
	// pool; the rest must replay heap order exactly (see capPool), except
	// in RunStats, where no owner is observed and the four pools released
	// in commit order run on rings. rings keeps those rings' storage
	// across reset.
	rob, iq, lq, sq *capPool
	intRF, fpRF     *capPool
	fq              *fifoPool
	rings           [4]*fifoPool

	// Execution units, indexed densely by uarch.Resource (only the four FU
	// classes are populated; a map here would hash on every issue).
	fus   [uarch.NumResources]*unitPool
	ports *unitPool

	// Register scoreboard: when each architectural register's latest value
	// is ready and who produces it.
	intReady, fpReady [isa.NumIntArchRegs]int64
	intProd, fpProd   [isa.NumIntArchRegs]int

	// In-flight store tracking for forwarding: address -> producing store.
	storeBuf *storeTable

	lastF, lastDC, lastR, lastDP, lastC int64

	// Fetch-group state.
	groupLeft    int
	groupF1      int64
	groupF2      int64
	groupLat     int64
	nextFetch    int64    // earliest F1 of the next group
	groupDrain   [2]int64 // F time of the last instruction of the previous two groups
	refillFrom   int      // mispredicted branch seq that gates the next fetch, or -1
	maxGroupSize int
	// pendingRedirectSeq is the mispredicted branch whose resolution will
	// release the stalled front end (-1 when the front end is healthy).
	pendingRedirectSeq int

	stats Stats

	// released marks a core handed back by Release and not yet reissued
	// by New; a second Release is a bug and panics.
	released bool
}

type storeEntry struct {
	seq    int
	pReady int64 // when the store's data is available for forwarding
	commit int64 // commit cycle (forwarding window end)
}

// corePool holds released cores for New to recycle.
var corePool sync.Pool

// New returns a core for the given configuration in the cold state every
// simulation starts from: empty pipeline, untrained predictor, invalid
// caches. It recycles a core handed back by Release when one is available,
// resetting it in place at a cost proportional to the state its last run
// touched rather than to the structures' sizes; a core that is never
// released is garbage collected like any value.
func New(cfg uarch.Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, _ := corePool.Get().(*Core)
	if c == nil {
		c = new(Core)
	}
	if err := c.reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Release hands the core back for a later New to recycle. The caller must
// not use the core afterwards. Traces and Stats its runs returned do not
// share its storage and stay valid. Releasing a core twice panics.
func (c *Core) Release() {
	if c.released {
		panic("ooo: Core released twice")
	}
	c.released = true
	corePool.Put(c)
}

// reset puts c in the state of a freshly built core for cfg. Every
// structure's reset allocates on a nil receiver, so a fresh core is the
// reset of an empty Core and construction and recycling share this path.
func (c *Core) reset(cfg uarch.Config) error {
	pred, err := c.pred.Reset(bpred.Config{
		LocalEntries:  cfg.LocalPredictor,
		GlobalEntries: cfg.GlobalPredictor,
		BTBEntries:    cfg.BTBEntries,
		RASEntries:    cfg.RASEntries,
	})
	if err != nil {
		return err
	}
	hier, err := c.hier.Reset(
		cache.Config{SizeKB: cfg.ICacheKB, Assoc: cfg.ICacheAssoc},
		cache.Config{SizeKB: cfg.DCacheKB, Assoc: cfg.DCacheAssoc},
	)
	if err != nil {
		return err
	}
	*c = Core{
		cfg:        cfg,
		pred:       pred,
		hier:       hier,
		fetchBW:    inorderBW{width: cfg.Width},
		decodeBW:   inorderBW{width: cfg.Width},
		renameBW:   inorderBW{width: cfg.Width},
		dispatchBW: inorderBW{width: cfg.Width},
		commitBW:   inorderBW{width: cfg.Width},
		issueBW:    c.issueBW.reset(cfg.Width, issueRingSlots(cfg)),
		rob:        c.rob.reset(cfg.ROBEntries),
		iq:         c.iq.reset(cfg.IQEntries),
		lq:         c.lq.reset(cfg.LQEntries),
		sq:         c.sq.reset(cfg.SQEntries),
		fq:         c.fq.reset(cfg.FetchQueueUops),
		rings:      c.rings,
		intRF:      c.intRF.reset(cfg.IntRF - isa.NumIntArchRegs),
		fpRF:       c.fpRF.reset(cfg.FpRF - isa.NumFpArchRegs),
		fus: [uarch.NumResources]*unitPool{
			uarch.ResIntALU:     c.fus[uarch.ResIntALU].reset(cfg.IntALU),
			uarch.ResIntMultDiv: c.fus[uarch.ResIntMultDiv].reset(cfg.IntMultDiv),
			uarch.ResFpALU:      c.fus[uarch.ResFpALU].reset(cfg.FpALU),
			uarch.ResFpMultDiv:  c.fus[uarch.ResFpMultDiv].reset(cfg.FpMultDiv),
		},
		ports:              c.ports.reset(cfg.RdWrPorts),
		storeBuf:           c.storeBuf.reset(),
		refillFrom:         -1,
		pendingRedirectSeq: -1,
		groupDrain:         [2]int64{-1, -1},
		maxGroupSize:       cfg.FetchBufBytes / 4,
	}
	for i := range c.intProd {
		c.intProd[i] = -1
		c.fpProd[i] = -1
	}
	return nil
}

// issueRingSlots sizes the issue bandwidth ring from the config's actual
// reorder window instead of a fixed constant. Live issue cycles can spread
// over at most the in-flight window (ROB entries plus fetch-queue
// buffering) times the worst per-instruction wait hop; sizing for the
// typical hop (an L2 round trip, not a full DRAM miss chain) keeps the
// per-run clear cost small, and the rare config/workload that exceeds the
// envelope is caught by the ring's collision check and repaired by an
// exact doubling instead of silently corrupting bandwidth counts.
func issueRingSlots(cfg uarch.Config) int {
	window := cfg.ROBEntries + cfg.FetchQueueUops + 2
	slots := window * 64
	const minSlots, maxSlots = 1 << 12, 1 << 17
	if slots < minSlots {
		return minSlots
	}
	if slots > maxSlots {
		return maxSlots
	}
	return slots
}

// Run simulates the dynamic instruction stream and returns the pipeline
// trace plus activity statistics, recording the full set of DEG
// annotations (resource/FU/port producers, data producers, misprediction
// refill sources). It is RunStream with one chunk the size of the stream,
// which Run keeps and returns with its Cycles set.
//
// Run never mutates the stream: workload.CachedTrace shares one memoised
// slice across every concurrent evaluation, so the stream is read-only by
// contract. The returned trace draws its storage from the trace pool; the
// caller owns it and may hand it back via (*pipetrace.Trace).Release, or
// keep it and never do. The returned Stats is a copy that outlives the
// core's Release.
func (c *Core) Run(stream []isa.Inst) (*pipetrace.Trace, *Stats, error) {
	var tr *pipetrace.Trace
	st, err := c.run(stream, len(stream), func(t *pipetrace.Trace) error {
		tr = t
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	tr.Cycles = st.Cycles
	return tr, st, nil
}

// RunStats is Run for a caller that reads only the Stats: the same
// per-instruction loop, with each DefaultChunkSize chunk of records
// released as soon as it fills, so no trace is kept or returned. With no
// owner observed, the ROB, LQ and rename pools, whose entries are
// released in commit order, pop their earliest release from a ring
// instead of a heap (DESIGN.md §25); the popped times, and with them
// every field of Stats, equal Run's. The run checks ctx once per chunk
// and, once ctx has ended, stops there and returns ctx's error.
//
// Like Run, RunStats simulates from the state New left the core in and
// never mutates the stream, and the returned Stats is a copy.
func (c *Core) RunStats(ctx context.Context, stream []isa.Inst) (*Stats, error) {
	for i, p := range [...]*capPool{c.rob, c.lq, c.intRF, c.fpRF} {
		c.rings[i] = p.useRing(c.rings[i])
	}
	return c.run(stream, DefaultChunkSize, func(t *pipetrace.Trace) error {
		t.Release()
		return ctx.Err()
	})
}

// RunLite is Run.
//
// Deprecated: use Run. RunLite remains for the archbench replay until it
// moves to Run.
func (c *Core) RunLite(stream []isa.Inst) (*pipetrace.Trace, *Stats, error) { return c.Run(stream) }

// run is the one per-instruction loop behind Run and RunStream. It fills
// one pooled trace per chunkSize records of stream (the last may hold
// fewer) and hands each to sink as soon as it is full, so it takes exactly
// ceil(len(stream)/chunkSize) traces from the pool and no spare. A sink
// error stops the simulation at once and is returned as is. On success it
// returns a copy of the run's Stats.
func (c *Core) run(stream []isa.Inst, chunkSize int, sink func(*pipetrace.Trace) error) (*Stats, error) {
	if err := checkStreamLen(len(stream)); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(stream); lo += chunkSize {
		hi := min(lo+chunkSize, len(stream))
		tr := pipetrace.GetTrace(hi - lo)
		for seq := lo; seq < hi; seq++ {
			in := &stream[seq]
			tr.Records = pipetrace.AppendReset(tr.Records, seq, in.PC, in.Class)
			rec := &tr.Records[seq-lo]

			c.fetch(in, rec)
			c.decode(rec)
			c.rename(in, rec)
			c.schedule(in, rec)
			c.commit(in, rec)
		}
		if err := sink(tr); err != nil {
			return nil, err
		}
	}
	c.finalizeStats(len(stream))
	st := c.stats
	return &st, nil
}

// checkStreamLen rejects a stream the simulator cannot trace: an empty
// one, or one longer than pipetrace.MaxTraceLen, whose producer sequence
// numbers the records' int32 annotations would wrap.
func checkStreamLen(n int) error {
	if n == 0 {
		return fmt.Errorf("ooo: empty instruction stream")
	}
	if n > pipetrace.MaxTraceLen {
		return fmt.Errorf("ooo: %d instructions exceed the trace limit of %d", n, pipetrace.MaxTraceLen)
	}
	return nil
}

// finalizeStats fills the end-of-run counters after n committed
// instructions. Cycles are 0-based stamps, so the total is lastC+1.
func (c *Core) finalizeStats(n int) {
	c.stats.Fetched += uint64(n)
	c.stats.Committed += uint64(n)
	c.stats.Cycles = c.lastC + 1
	c.stats.ICacheAccesses = c.hier.L1I.Accesses
	c.stats.ICacheMisses = c.hier.L1I.Misses
	c.stats.DCacheAccesses = c.hier.L1D.Accesses
	c.stats.DCacheMisses = c.hier.L1D.Misses
	c.stats.L2Accesses = c.hier.L2.Accesses
	c.stats.L2Misses = c.hier.L2.Misses
	c.stats.BranchLookups = c.pred.Lookups
	c.stats.Mispredicts = c.pred.Mispredicts
}

// fetch resolves F1/F2/F for one instruction, handling fetch grouping,
// I-cache latency, branch prediction, and misprediction refills.
func (c *Core) fetch(in *isa.Inst, rec *pipetrace.Record) {
	if c.groupLeft == 0 {
		// Start a new fetch group: one I$ request covering up to
		// FetchBufBytes of straight-line instructions. At most two groups
		// are in flight: a group may not start before the group two back
		// has drained into the fetch queue.
		f1 := max(c.nextFetch, c.groupDrain[0]+1)
		c.groupDrain[0] = c.groupDrain[1]
		lat := int64(c.hier.FetchLatency(in.PC))
		c.groupF1 = f1
		c.groupLat = lat
		c.groupF2 = f1 + lat
		c.groupLeft = c.maxGroupSize
		c.stats.FetchGroups++
		if c.refillFrom >= 0 {
			rec.MispredictFrom = c.refillFrom
			c.refillFrom = -1
		}
	}
	c.groupLeft--

	rec.Stamp[pipetrace.SF1] = c.groupF1
	rec.Stamp[pipetrace.SF2] = c.groupF2
	rec.ICacheLat = c.groupLat

	// F: copy into the fetch queue — fetch width and FQ capacity apply.
	fqAt := c.fq.alloc()
	fAt := max(c.groupF2, fqAt, c.lastF)
	f := c.fetchBW.book(fAt)
	rec.Stamp[pipetrace.SF] = f
	c.lastF = f
	c.groupDrain[1] = f

	groupDone := c.groupLeft == 0

	if in.Class == isa.OpBranch {
		pred := c.pred.Predict(in.PC, in.BrKind)
		mispred := pred.Taken != in.Taken || (in.Taken && pred.Target != in.NextPC())
		if mispred {
			c.pred.Mispredicts++
			rec.Mispredicted = true
			c.pred.Recover(pred.Snap, in.BrKind, in.Taken)
			// The front end stalls until the branch resolves; the
			// resolve time is filled in by schedule().
			c.pendingRedirectSeq = rec.Seq
			groupDone = true
		} else if in.Taken {
			// Correctly predicted taken: the BTB redirects the next
			// fetch group to the target with a one-cycle bubble.
			groupDone = true
		}
		c.pred.Train(in.PC, in.BrKind, in.Taken, in.NextPC(), pred.Snap.Hist())
	}

	if groupDone {
		c.groupLeft = 0
		c.nextFetch = c.groupF1 + 1
	}
}

// decode resolves DC and frees the fetch-queue entry.
func (c *Core) decode(rec *pipetrace.Record) {
	dc := c.decodeBW.book(max(rec.Stamp[pipetrace.SF]+1, c.lastDC))
	rec.Stamp[pipetrace.SDC] = dc
	c.lastDC = dc
	c.fq.free(dc + 1)
}

// rename resolves R and DP: it performs the scoreboard checks on every
// back-end structure the instruction needs, recording which producer's
// release unblocked each stall (the paper's rename-to-rename edges).
func (c *Core) rename(in *isa.Inst, rec *pipetrace.Record) {
	base := max(rec.Stamp[pipetrace.SDC]+1, c.lastR)
	ready := base

	// Allocate every structure this instruction needs — ROB, IQ, LQ or SQ,
	// and a rename file when it has a destination — directly, one call per
	// pool. Deps are staged in a stack buffer and stored in the record in
	// one shot.
	var depBuf [pipetrace.MaxResourceDeps]pipetrace.ResourceDep
	deps := 0
	// A pool that constrains names its owner unless it runs on a ring
	// (RunStats), so the stall counts are the same either way.
	take := func(t int64, owner int, res uarch.Resource) {
		if t > base {
			c.stats.RenameStalls[res]++
			if owner >= 0 {
				depBuf[deps] = pipetrace.ResourceDep{Resource: res, Producer: int32(owner)}
				deps++
			}
		}
		ready = max(ready, t)
	}
	{
		t, owner := c.rob.alloc()
		take(t, owner, uarch.ResROB)
	}
	{
		t, owner := c.iq.alloc()
		take(t, owner, uarch.ResIQ)
	}
	switch in.Class {
	case isa.OpLoad:
		t, owner := c.lq.alloc()
		take(t, owner, uarch.ResLQ)
	case isa.OpStore:
		t, owner := c.sq.alloc()
		take(t, owner, uarch.ResSQ)
	}
	if in.HasDest() {
		if in.Dest.Float() {
			t, owner := c.fpRF.alloc()
			take(t, owner, uarch.ResFpRF)
		} else {
			t, owner := c.intRF.alloc()
			take(t, owner, uarch.ResIntRF)
		}
	}
	if deps > 0 {
		rec.SetResourceDeps(depBuf[:deps]...)
	}

	r := c.renameBW.book(ready)
	rec.Stamp[pipetrace.SR] = r
	c.lastR = r
	c.stats.RenameOps++

	dp := c.dispatchBW.book(max(r+1, c.lastDP))
	rec.Stamp[pipetrace.SDP] = dp
	c.lastDP = dp
}

// schedule resolves I, M, and P: operand wakeup, FU and memory-port
// contention, cache access, and store-to-load forwarding.
func (c *Core) schedule(in *isa.Inst, rec *pipetrace.Record) {
	dp := rec.Stamp[pipetrace.SDP]
	base := dp + 1

	// Operand readiness (true data dependence), both sources unrolled into
	// a stack buffer.
	var prodBuf [pipetrace.MaxDataProducers]int32
	prods := 0
	for s := 0; s < 2; s++ {
		src := in.Src1
		if s == 1 {
			src = in.Src2
		}
		if !src.Valid() || src.IsZero() {
			continue
		}
		var t int64
		var prod int
		if i := src.Index(); src.Float() {
			t, prod = c.fpReady[i], c.fpProd[i]
		} else {
			t, prod = c.intReady[i], c.intProd[i]
		}
		if t > base && prod >= 0 {
			prodBuf[prods] = int32(prod)
			prods++
		}
		base = max(base, t)
	}
	if prods > 0 {
		rec.SetDataProducers(prodBuf[:prods]...)
	}

	// Functional unit.
	spec := &fuTable[in.Class]
	occ := int64(1)
	if !spec.pipelined {
		occ = spec.lat
	}
	fu := c.fus[spec.res]
	fuStart, fuUnit, fuPrev := fu.acquire(base, occ, rec.Seq)
	if fuStart > base && fuPrev >= 0 {
		rec.FUProducer = fuPrev
		rec.FURes = spec.res
	}
	issueAt := fuStart

	// Memory port (loads occupy a RdWr port at issue).
	portUnit := -1
	if in.Class == isa.OpLoad {
		pStart, pu, pPrev := c.ports.acquire(issueAt, 1, rec.Seq)
		if pStart > issueAt && pPrev >= 0 {
			rec.PortProducer = pPrev
		}
		issueAt = pStart
		portUnit = pu
	}

	iss := c.issueBW.book(issueAt)
	// Rebook the unit (and port) at the true issue cycle so later
	// consumers' producer annotations stay causally ordered.
	if iss != fuStart {
		fu.adjust(fuUnit, iss, occ)
	}
	if portUnit >= 0 && iss != issueAt {
		c.ports.adjust(portUnit, iss, 1)
	}
	rec.Stamp[pipetrace.SI] = iss
	c.stats.IssuedPerFU[spec.res]++
	c.iq.free(iss+1, rec.Seq)

	// Execution / memory access.
	var done int64
	rec.ExecLat = spec.lat
	switch in.Class {
	case isa.OpLoad:
		m := iss + 1 // address generation
		rec.Stamp[pipetrace.SM] = m
		addr := in.Addr &^ 7
		if se, ok := c.storeBuf.get(addr); ok && se.commit > m {
			// Store-to-load forwarding from the SQ.
			c.stats.StoreForwards++
			done = max(m, se.pReady) + 1
			rec.DCacheLat = done - m
		} else {
			lat := int64(c.hier.DataLatency(in.Addr))
			rec.DCacheLat = lat
			done = m + lat
		}
	case isa.OpStore:
		m := iss + 1
		rec.Stamp[pipetrace.SM] = m
		done = m // address + data staged in the SQ
	default:
		done = iss + spec.lat
	}
	rec.Stamp[pipetrace.SP] = done

	// Publish the destination for dependents.
	if in.HasDest() {
		if i := in.Dest.Index(); in.Dest.Float() {
			c.fpReady[i] = done + 1
			c.fpProd[i] = rec.Seq
		} else {
			c.intReady[i] = done + 1
			c.intProd[i] = rec.Seq
		}
	}

	// Mispredicted branch: the front end resumes after resolution.
	if rec.Mispredicted && c.pendingRedirectSeq == rec.Seq {
		resume := done + redirectPenalty
		if resume > c.nextFetch {
			c.nextFetch = resume
		}
		c.refillFrom = rec.Seq
		c.groupLeft = 0
		c.pendingRedirectSeq = -1
	}
}

// commit resolves C and releases commit-time resources: the ROB entry, the
// LQ entry, the previous mapping of the destination register, and (after
// the drain) the SQ entry.
func (c *Core) commit(in *isa.Inst, rec *pipetrace.Record) {
	cc := c.commitBW.book(max(rec.Stamp[pipetrace.SP]+1, c.lastC))
	rec.Stamp[pipetrace.SC] = cc
	c.lastC = cc

	c.rob.free(cc+1, rec.Seq)
	if in.HasDest() {
		if in.Dest.Float() {
			c.fpRF.free(cc+1, rec.Seq)
		} else {
			c.intRF.free(cc+1, rec.Seq)
		}
	}
	switch in.Class {
	case isa.OpLoad:
		c.lq.free(cc+1, rec.Seq)
	case isa.OpStore:
		// The store drains to the D$ after commit through the write
		// buffer, holding its SQ entry for the duration of the access.
		drain := cc + 1 // write buffer has its own D$ write port
		lat := int64(c.hier.DataLatency(in.Addr))
		c.sq.free(drain+lat, rec.Seq)
		c.storeBuf.put(in.Addr&^7, storeEntry{
			seq:    rec.Seq,
			pReady: rec.Stamp[pipetrace.SP],
			commit: drain + lat,
		})
	}
}
