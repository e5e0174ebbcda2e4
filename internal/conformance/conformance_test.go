package conformance

import (
	"errors"
	"strings"
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// suiteNames are the bundled workloads the corpus quantifies over.
var suiteNames = []string{"458.sjeng", "444.namd", "429.mcf", "462.libquantum"}

func stream(t testing.TB, name string, n int) []isa.Inst {
	t.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.CachedTrace(p, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCorpus is the conformance corpus: 200 random valid configs (40 with
// -short) checked across every engine on every bundled workload. A failing
// draw is shrunk toward the baseline before reporting, so the log names a
// locally minimal counterexample.
func TestCorpus(t *testing.T) {
	// DEG attribution comparison is the expensive oracle; the first
	// degConfigs draws per workload exercise it, fingerprints cover the rest.
	const degConfigs = 25
	configs := 200
	if testing.Short() {
		configs = 40
	}
	gen := NewGen(1)
	pts := make([]uarch.Point, configs)
	for i := range pts {
		pts[i] = gen.Point()
	}
	for _, name := range suiteNames {
		st := stream(t, name, 1000)
		for i, pt := range pts {
			withDEG := i < degConfigs
			if err := Check(st, name, []uarch.Config{gen.Space.Decode(pt)}, withDEG); err != nil {
				reportShrunk(t, gen.Space, st, name, pt, withDEG, err)
			}
		}
	}
}

// TestCorpusEdges pins the capacity-floor corners of the space: configs
// with every pool starved at once (at both width extremes) and with each
// pool starved individually, checked across every engine with the DEG
// oracle on (the 4-worker streamed windowed analyzer). Random draws
// never land here, but these are the points where the pool free lists
// saturate every cycle — the first place a pool bookkeeping or
// release-tie-order bug would surface.
func TestCorpusEdges(t *testing.T) {
	cfgs := EdgeConfigs()
	if len(cfgs) < 10 {
		t.Fatalf("EdgeConfigs returned only %d configs; the space floors no longer validate?", len(cfgs))
	}
	names := suiteNames
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		st := stream(t, name, 1000)
		if err := Check(st, name, cfgs, true); err != nil {
			t.Fatalf("engines diverged at the capacity floor on %s: %v", name, err)
		}
	}
}

// reportShrunk minimises a failing config to a locally minimal
// counterexample and fails with both the original and shrunk reports.
func reportShrunk(t *testing.T, space *uarch.Space, st []isa.Inst, name string, pt uarch.Point, withDEG bool, err error) {
	t.Helper()
	fails := func(pt uarch.Point) bool {
		return Check(st, name, []uarch.Config{space.Decode(pt)}, withDEG) != nil
	}
	min := Shrink(space, pt, fails)
	t.Fatalf("engines diverged on %s: %v\nshrunk counterexample: %v\n%v",
		name, err, min, Check(st, name, []uarch.Config{space.Decode(min)}, withDEG))
}

// TestCheckAgreesOnBaseline is the fast smoke: the baseline design point,
// DEG oracle included.
func TestCheckAgreesOnBaseline(t *testing.T) {
	space := uarch.StandardSpace()
	cfg := space.Decode(space.Nearest(uarch.Baseline()))
	if err := Check(stream(t, "458.sjeng", 1500), "458.sjeng", []uarch.Config{cfg}, true); err != nil {
		t.Fatal(err)
	}
}

// TestCheckRejectsBadInput: empty config lists and invalid configs surface
// as errors, not as silent agreement.
func TestCheckRejectsBadInput(t *testing.T) {
	st := stream(t, "458.sjeng", 500)
	if err := Check(st, "458.sjeng", nil, false); err == nil {
		t.Fatal("empty config list accepted")
	}
	bad := uarch.Baseline()
	bad.IntRF = 2 // fewer physical than architectural registers
	if err := Check(st, "458.sjeng", []uarch.Config{bad}, false); err == nil {
		t.Fatal("invalid config accepted")
	}
	if err := Check(nil, "458.sjeng", []uarch.Config{uarch.Baseline()}, false); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestGenDeterministicAndValid: same seed, same draws; every draw decodes
// to a validating config inside the space.
func TestGenDeterministicAndValid(t *testing.T) {
	a, b := NewGen(42), NewGen(42)
	for i := 0; i < 50; i++ {
		pa, pb := a.Point(), b.Point()
		if pa != pb {
			t.Fatalf("draw %d diverged: %v vs %v", i, pa, pb)
		}
		cfg := a.Space.Decode(pa)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("draw %d invalid: %v", i, err)
		}
		if !a.Space.Contains(cfg) {
			t.Fatalf("draw %d outside the space: %+v", i, cfg)
		}
		// Config() is exactly one draw: the twin generators stay in
		// lockstep when one advances via Config and the other via Point.
		if c := a.Config(); c != b.Space.Decode(b.Point()) {
			t.Fatalf("Config consumed more than one draw at %d: %+v", i, c)
		}
	}
}

// TestShrinkReachesMinimal: with a predicate that fails iff ROB and IQ are
// above given levels, Shrink must land exactly one step above the
// thresholds on those axes and on the baseline everywhere else.
func TestShrinkReachesMinimal(t *testing.T) {
	space := uarch.StandardSpace()
	base := space.Nearest(uarch.Baseline())
	fails := func(pt uarch.Point) bool {
		return pt[uarch.ParamROB] >= 3 && pt[uarch.ParamIQ] >= 2
	}
	start := base
	start[uarch.ParamROB] = space.Levels(uarch.ParamROB) - 1
	start[uarch.ParamIQ] = space.Levels(uarch.ParamIQ) - 1
	start[uarch.ParamWidth] = space.Levels(uarch.ParamWidth) - 1 // irrelevant axis
	if !fails(start) {
		t.Fatal("start point does not fail")
	}
	min := Shrink(space, start, fails)
	if !fails(min) {
		t.Fatal("shrunk point no longer fails")
	}
	want := base
	want[uarch.ParamROB], want[uarch.ParamIQ] = 3, 2
	// The baseline may itself sit above a threshold; clamp expectations.
	if base[uarch.ParamROB] > 3 {
		want[uarch.ParamROB] = base[uarch.ParamROB]
	}
	if base[uarch.ParamIQ] > 2 {
		want[uarch.ParamIQ] = base[uarch.ParamIQ]
	}
	if min != want {
		t.Fatalf("shrunk to %v, want %v (baseline %v)", min, want, base)
	}
}

// TestShrinkKeepsFailingPoint: a predicate nothing smaller satisfies
// returns the start point unchanged.
func TestShrinkKeepsFailingPoint(t *testing.T) {
	space := uarch.StandardSpace()
	start := space.Nearest(uarch.Baseline())
	start[uarch.ParamROB]++
	only := start
	min := Shrink(space, start, func(pt uarch.Point) bool { return pt == only })
	if min != start {
		t.Fatalf("shrink moved off the only failing point: %v", min)
	}
}

// TestShrinkMovesUpTowardBaseline: shrinking is "toward the baseline", not
// "downward" — a start point below the baseline on some axis walks up it.
func TestShrinkMovesUpTowardBaseline(t *testing.T) {
	space := uarch.StandardSpace()
	base := space.Nearest(uarch.Baseline())
	start := base
	start[uarch.ParamROB] = 0
	if start == base {
		t.Skip("baseline sits at the bottom ROB level")
	}
	min := Shrink(space, start, func(uarch.Point) bool { return true })
	if min != base {
		t.Fatalf("always-failing predicate should shrink to baseline: %v vs %v", min, base)
	}
}

// TestMismatchError: the failure report names the engine, workload, and
// both fingerprints — everything needed to reproduce by hand.
func TestMismatchError(t *testing.T) {
	m := &Mismatch{Engine: "stream", Workload: "429.mcf", Config: uarch.Baseline(), Want: 0xabc, Got: 0xdef}
	var err error = m
	var back *Mismatch
	if !errors.As(err, &back) {
		t.Fatal("Mismatch does not travel as an error")
	}
	for _, want := range []string{"stream", "429.mcf", "0xabc", "0xdef"} {
		if !strings.Contains(m.Error(), want) {
			t.Fatalf("mismatch report %q missing %q", m.Error(), want)
		}
	}
}

// FuzzConformance feeds the differential check from the fuzzer: each input
// seeds the generator for three configs over a short stream. The seed
// corpus covers runs with and without the DEG oracles; `go test -fuzz=FuzzConformance` explores
// further.
func FuzzConformance(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Add(int64(1234567))
	st := stream(f, "462.libquantum", 600)
	f.Fuzz(func(t *testing.T, seed int64) {
		gen := NewGen(seed)
		cfgs := []uarch.Config{gen.Config(), gen.Config(), gen.Config()}
		if err := Check(st, "462.libquantum", cfgs, seed%2 == 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
