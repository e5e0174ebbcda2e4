package ooo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"archexplorer/internal/deg"
	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// TestRandomConfigsProduceValidTraces is the core property test: any design
// point of the Table 4 space must simulate any workload into a trace that
// passes every pipetrace invariant (dense sequence numbers, monotone stage
// stamps, in-order commit).
func TestRandomConfigsProduceValidTraces(t *testing.T) {
	s := uarch.StandardSpace()
	names := []string{"458.sjeng", "429.mcf", "619.lbm_s", "453.povray"}
	f := func(seed int64, wlIdx uint8) bool {
		pt := s.Random(rand.New(rand.NewSource(seed)))
		cfg := s.Decode(pt)
		p, err := workload.ByName(names[int(wlIdx)%len(names)])
		if err != nil {
			return false
		}
		stream, err := workload.CachedTrace(p, 1200)
		if err != nil {
			return false
		}
		core, err := New(cfg)
		if err != nil {
			return false
		}
		tr, st, err := core.Run(stream)
		if err != nil {
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Logf("config %s: %v", cfg, err)
			return false
		}
		return st.IPC() > 0 && st.IPC() <= float64(cfg.Width)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestResourceProducersPrecedeConsumers checks the scoreboard outputs the
// DEG depends on: every recorded producer is an older instruction, and the
// producer's release plausibly gates the consumer's stall.
func TestResourceProducersPrecedeConsumers(t *testing.T) {
	tr, _ := runWorkload(t, uarch.Baseline(), "458.sjeng", 6000)
	for i := range tr.Records {
		rec := &tr.Records[i]
		for _, rd := range rec.ResourceDeps() {
			if int(rd.Producer) >= rec.Seq {
				t.Fatalf("seq %d: resource producer %d not older", rec.Seq, rd.Producer)
			}
			// Rename-to-rename: the producer renamed before us.
			if tr.Records[rd.Producer].Stamp[pipetrace.SR] > rec.Stamp[pipetrace.SR] {
				t.Fatalf("seq %d: producer %d renamed later", rec.Seq, rd.Producer)
			}
		}
		if rec.FUProducer >= 0 {
			if rec.FUProducer >= rec.Seq {
				t.Fatalf("seq %d: FU producer %d not older", rec.Seq, rec.FUProducer)
			}
			if tr.Records[rec.FUProducer].Stamp[pipetrace.SI] > rec.Stamp[pipetrace.SI] {
				t.Fatalf("seq %d: FU producer issued later", rec.Seq)
			}
		}
		for _, p := range rec.DataProducers() {
			if int(p) >= rec.Seq {
				t.Fatalf("seq %d: data producer %d not older", rec.Seq, p)
			}
		}
		if rec.MispredictFrom >= 0 {
			src := &tr.Records[rec.MispredictFrom]
			if !src.Mispredicted {
				t.Fatalf("seq %d: refill source %d not mispredicted", rec.Seq, rec.MispredictFrom)
			}
			if src.Stamp[pipetrace.SP] > rec.Stamp[pipetrace.SF1] {
				t.Fatalf("seq %d: fetched before branch %d resolved", rec.Seq, rec.MispredictFrom)
			}
		}
	}
}

// TestROBOccupancyBounded reconstructs ROB occupancy from the trace: at no
// cycle may more than ROBEntries instructions be between rename and commit.
func TestROBOccupancyBounded(t *testing.T) {
	cfg := uarch.Baseline()
	tr, _ := runWorkload(t, cfg, "429.mcf", 4000)
	type ev struct {
		t     int64
		delta int
	}
	var evs []ev
	for i := range tr.Records {
		evs = append(evs, ev{tr.Records[i].Stamp[pipetrace.SR], +1})
		evs = append(evs, ev{tr.Records[i].Stamp[pipetrace.SC] + 1, -1})
	}
	// Counting sort by time would be overkill; simple sort.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && (evs[j].t < evs[j-1].t || (evs[j].t == evs[j-1].t && evs[j].delta < evs[j-1].delta)); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	occ, maxOcc := 0, 0
	for _, e := range evs {
		occ += e.delta
		if occ > maxOcc {
			maxOcc = occ
		}
	}
	if maxOcc > cfg.ROBEntries {
		t.Fatalf("ROB occupancy reached %d > %d", maxOcc, cfg.ROBEntries)
	}
	if maxOcc < cfg.ROBEntries/2 {
		t.Logf("note: ROB never more than half full (max %d)", maxOcc)
	}
}

// TestCommitBandwidthRespected: no more than Width commits per cycle.
func TestCommitBandwidthRespected(t *testing.T) {
	cfg := uarch.Baseline()
	tr, _ := runWorkload(t, cfg, "456.hmmer", 6000)
	perCycle := map[int64]int{}
	for i := range tr.Records {
		perCycle[tr.Records[i].Stamp[pipetrace.SC]]++
	}
	for c, n := range perCycle {
		if n > cfg.Width {
			t.Fatalf("cycle %d committed %d > width %d", c, n, cfg.Width)
		}
	}
}

// TestStoreForwardingHappens: a tight store-then-load sequence to the same
// address must sometimes forward from the store queue.
func TestStoreForwardingHappens(t *testing.T) {
	var stream []isa.Inst
	pc := uint64(0x1000)
	addr := uint64(0x200000)
	for i := 0; i < 200; i++ {
		stream = append(stream, isa.Inst{
			PC: pc, Class: isa.OpStore, Addr: addr,
			Src1: isa.IntReg(8), Src2: isa.IntReg(9), Dest: isa.InvalidReg, Size: 8,
		})
		pc += 4
		stream = append(stream, isa.Inst{
			PC: pc, Class: isa.OpLoad, Addr: addr,
			Src1: isa.IntReg(8), Src2: isa.InvalidReg, Dest: isa.IntReg(10), Size: 8,
		})
		pc += 4
		addr += 8
	}
	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := core.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if st.StoreForwards == 0 {
		t.Fatal("no store-to-load forwarding in a forwarding-dominated stream")
	}
}

// TestMispredictionStallsFetch: after a mispredicted branch, the next
// instruction's fetch must begin after the branch resolves.
func TestMispredictionStallsFetch(t *testing.T) {
	tr, stats := runWorkload(t, uarch.Baseline(), "458.sjeng", 6000)
	if stats.Mispredicts == 0 {
		t.Skip("no mispredictions observed")
	}
	refills := 0
	for i := range tr.Records {
		rec := &tr.Records[i]
		if rec.MispredictFrom < 0 {
			continue
		}
		refills++
		br := &tr.Records[rec.MispredictFrom]
		if rec.Stamp[pipetrace.SF1] <= br.Stamp[pipetrace.SP] {
			t.Fatalf("refill fetch at %d before branch resolution at %d",
				rec.Stamp[pipetrace.SF1], br.Stamp[pipetrace.SP])
		}
	}
	if refills == 0 {
		t.Fatal("mispredictions recorded but no refill annotations")
	}
}

// TestNarrowMachineSlower: at the Table 1 baseline width barely matters —
// the machine is register-file bound (the paper's Figure 2 point). With a
// well-provisioned back end, width-1 versus width-4 must show a meaningful
// gap on an ILP-friendly workload.
func TestNarrowMachineSlower(t *testing.T) {
	rich := uarch.Baseline()
	rich.ROBEntries = 192
	rich.IntRF = 256
	rich.FpRF = 256
	rich.IQEntries = 64
	rich.LQEntries = 48
	rich.SQEntries = 48
	rich.IntALU = 6
	rich.RdWrPorts = 2
	narrow := rich
	narrow.Width = 1

	_, sN := runWorkload(t, narrow, "456.hmmer", 8000)
	_, sW := runWorkload(t, rich, "456.hmmer", 8000)
	if sN.IPC() > 1.0 {
		t.Fatalf("width-1 machine IPC %.3f > 1", sN.IPC())
	}
	if sW.IPC() < sN.IPC()*1.2 {
		t.Fatalf("4-wide %.3f not meaningfully faster than width-1 %.3f", sW.IPC(), sN.IPC())
	}
}

// TestEmptyStreamRejected guards the Run API contract.
func TestEmptyStreamRejected(t *testing.T) {
	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Run(nil); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

// TestStreamLengthLimit: a record names its producers by int32 sequence
// numbers, so a stream longer than pipetrace.MaxTraceLen would wrap them
// and the simulator rejects it. The guard looks at the length alone, which
// the test checks without building such a stream; Run and RunStream call
// it before they take a trace from the pool, as the empty stream shows.
func TestStreamLengthLimit(t *testing.T) {
	if err := checkStreamLen(pipetrace.MaxTraceLen); err != nil {
		t.Fatalf("a stream of MaxTraceLen instructions must be accepted: %v", err)
	}
	over := int64(pipetrace.MaxTraceLen) + 1
	if over > math.MaxInt {
		t.Skip("an int cannot count past the trace limit")
	}
	if err := checkStreamLen(int(over)); err == nil {
		t.Fatal("a stream longer than MaxTraceLen must be rejected")
	}
	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	defer core.Release()
	base := pipetrace.TracePoolStats()
	if _, err := core.RunStream(nil, 0, func(*pipetrace.Trace) error { return nil }); err == nil {
		t.Fatal("RunStream must reject an empty stream")
	}
	if st := pipetrace.TracePoolStats(); st.Gets != base.Gets {
		t.Fatalf("a rejected stream took %d traces from the pool", st.Gets-base.Gets)
	}
}

// TestInvalidConfigRejected guards the New API contract.
func TestInvalidConfigRejected(t *testing.T) {
	bad := uarch.Baseline()
	bad.IntRF = 10
	if _, err := New(bad); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

// TestFUContentionEasesWithMoreUnits: a divide-heavy stream on one
// unpipelined divider must speed up with a second divider.
func TestFUContentionEasesWithMoreUnits(t *testing.T) {
	var stream []isa.Inst
	pc := uint64(0x1000)
	for i := 0; i < 300; i++ {
		// Independent divides: distinct dests, invariant sources.
		stream = append(stream, isa.Inst{
			PC: pc, Class: isa.OpIntDiv,
			Src1: isa.IntReg(2), Src2: isa.IntReg(3), Dest: isa.IntReg(8 + i%16),
		})
		pc += 4
	}
	one := uarch.Baseline()
	two := one
	two.IntMultDiv = 2

	run := func(cfg uarch.Config) float64 {
		core, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := core.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		return st.IPC()
	}
	ipc1, ipc2 := run(one), run(two)
	if ipc2 < ipc1*1.5 {
		t.Fatalf("second divider did not help: %.4f -> %.4f", ipc1, ipc2)
	}
}

// TestFUContentionAnnotated: with one divider, back-to-back divides must
// carry FU producer annotations naming the previous divider user.
func TestFUContentionAnnotated(t *testing.T) {
	var stream []isa.Inst
	pc := uint64(0x1000)
	for i := 0; i < 50; i++ {
		stream = append(stream, isa.Inst{
			PC: pc, Class: isa.OpIntDiv,
			Src1: isa.IntReg(2), Src2: isa.IntReg(3), Dest: isa.IntReg(8 + i%16),
		})
		pc += 4
	}
	core, err := New(uarch.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := core.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	annotated := 0
	for i := range tr.Records {
		if tr.Records[i].FUProducer >= 0 {
			annotated++
			if tr.Records[i].FURes != uarch.ResIntMultDiv {
				t.Fatalf("FU resource %s", tr.Records[i].FURes)
			}
		}
	}
	if annotated < 20 {
		t.Fatalf("only %d divider-contention annotations", annotated)
	}
}

// TestSmallFetchBufferSlowsStraightLineFetch: with tiny fetch buffers the
// front end needs more I$ requests per instruction.
func TestSmallFetchBufferSlowsStraightLineFetch(t *testing.T) {
	small := uarch.Baseline()
	small.FetchBufBytes = 16
	_, sS := runWorkload(t, small, "462.libquantum", 6000)
	_, sB := runWorkload(t, uarch.Baseline(), "462.libquantum", 6000)
	if sS.FetchGroups <= sB.FetchGroups {
		t.Fatalf("16B buffer made %d groups, 64B made %d", sS.FetchGroups, sB.FetchGroups)
	}
	if sS.IPC() > sB.IPC()*1.02 {
		t.Fatalf("smaller fetch buffer should not be faster: %.3f vs %.3f", sS.IPC(), sB.IPC())
	}
}

// TestDEGBuildDropsNothing: every trace the simulator emits must build into
// a DEG with zero defensive drops — addEdge's NoStamp/backward guards exist
// for corrupt traces, and a clean simulator must never trip them. The drop
// counters made these visible (they used to vanish silently); this pins them
// at zero so any future simulator regression that emits an unstampable or
// time-reversed dependence fails here instead of quietly skewing attribution.
func TestDEGBuildDropsNothing(t *testing.T) {
	for _, name := range []string{"458.sjeng", "429.mcf", "462.libquantum", "453.povray"} {
		tr, _ := runWorkload(t, uarch.Baseline(), name, 6000)
		g, err := deg.Build(tr, deg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g.DroppedNoStamp != 0 || g.DroppedBackward != 0 {
			t.Fatalf("%s: DEG build dropped edges (no-stamp %d, backward %d)",
				name, g.DroppedNoStamp, g.DroppedBackward)
		}
		if g.ClippedDeps != 0 {
			t.Fatalf("%s: whole-trace build clipped %d deps", name, g.ClippedDeps)
		}
	}
}

// TestDeterminism: identical runs produce identical traces.
func TestDeterminism(t *testing.T) {
	tr1, s1 := runWorkload(t, uarch.Baseline(), "625.x264_s", 3000)
	tr2, s2 := runWorkload(t, uarch.Baseline(), "625.x264_s", 3000)
	if s1.Cycles != s2.Cycles {
		t.Fatalf("cycle counts differ: %d vs %d", s1.Cycles, s2.Cycles)
	}
	for i := range tr1.Records {
		if tr1.Records[i].Stamp != tr2.Records[i].Stamp {
			t.Fatalf("stamps differ at %d", i)
		}
	}
}
