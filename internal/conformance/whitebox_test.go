package conformance

import (
	"strings"
	"testing"

	"archexplorer/internal/deg"
	"archexplorer/internal/uarch"
)

// TestDivergedNamesEngine drives the detector itself: splice one output of
// a run with a DIFFERENT config into an agreeing run and diverged must name
// that engine. This is the only way to exercise the mismatch paths while
// the real engines agree.
func TestDivergedNamesEngine(t *testing.T) {
	st := stream(t, "458.sjeng", 600)
	space := uarch.StandardSpace()
	ref := space.Decode(space.Nearest(uarch.Baseline()))
	other := ref
	other.Width = ref.Width * 2

	want, err := runEngines(st, ref, true)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := runEngines(st, other, true)
	if err != nil {
		t.Fatal(err)
	}
	if engine, _, _ := want.diverged(); engine != "" {
		t.Fatalf("agreeing engines reported as diverged: %s", engine)
	}

	cases := []struct {
		engine string
		splice func(r *engineRuns)
		fp     bool // the engine is compared by fingerprint
	}{
		{"stream", func(r *engineRuns) { r.stream = diff.stream }, true},
		{"recycled", func(r *engineRuns) { r.recycled = diff.recycled }, true},
		{"stats", func(r *engineRuns) { r.stats = diff.stats }, true},
		{"deg-stream", func(r *engineRuns) { r.streamed = diff.streamed }, false},
		// Equal reports with diverging stats are still a divergence.
		{"deg-stream", func(r *engineRuns) {
			st := *r.streamed.st
			st.Windows++
			r.streamed.st = &st
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.engine, func(t *testing.T) {
			r := *want
			tc.splice(&r)
			engine, w, g := r.diverged()
			if engine != tc.engine {
				t.Fatalf("spliced %s output reported as %q", tc.engine, engine)
			}
			if tc.fp && (w == g || w == 0 || g == 0) {
				t.Fatalf("%s mismatch carries fingerprints %#x/%#x", engine, w, g)
			}
			if !tc.fp && (w != 0 || g != 0) {
				t.Fatalf("%s mismatch carries fingerprints %#x/%#x", engine, w, g)
			}
		})
	}

	// Without the DEG oracles no analysis runs, and the timing engines
	// still agree.
	plain, err := runEngines(st, ref, false)
	if err != nil {
		t.Fatal(err)
	}
	if engine, _, _ := plain.diverged(); engine != "" || plain.seq.rep != nil {
		t.Fatalf("DEG-off run: diverged %q, seq report %+v", engine, plain.seq.rep)
	}
}

// TestRunEnginesErrors: a config the reference engine rejects, and an empty
// stream, surface as errors rather than a verdict.
func TestRunEnginesErrors(t *testing.T) {
	bad := uarch.Baseline()
	bad.IntRF = 2
	if _, err := runEngines(stream(t, "458.sjeng", 200), bad, false); err == nil {
		t.Fatal("invalid reference config accepted")
	}
	if _, err := runEngines(nil, uarch.Baseline(), false); err == nil {
		t.Fatal("empty stream accepted by the reference run")
	}
}

// TestStreamFingerprintErrors: operational failures of the streaming
// engine propagate instead of producing a bogus hash.
func TestStreamFingerprintErrors(t *testing.T) {
	ref := uarch.Baseline()
	if _, err := streamFingerprint(ref, nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := ref
	bad.IntRF = 2
	if _, err := streamFingerprint(bad, stream(t, "458.sjeng", 200)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRecycledFingerprintErrors: failures of the recycled engine's runs
// propagate instead of producing a bogus hash.
func TestRecycledFingerprintErrors(t *testing.T) {
	if _, err := recycledFingerprint(uarch.Baseline(), nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := uarch.Baseline()
	bad.IntRF = 2
	if _, err := recycledFingerprint(bad, stream(t, "458.sjeng", 200)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunStatsFingerprintErrors: failures of the stats-only engine
// propagate instead of producing a bogus hash.
func TestRunStatsFingerprintErrors(t *testing.T) {
	if _, err := runStatsFingerprint(uarch.Baseline(), nil); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := uarch.Baseline()
	bad.IntRF = 2
	if _, err := runStatsFingerprint(bad, stream(t, "458.sjeng", 200)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestStreamWindowedErrors: the streamed DEG pipeline propagates simulator
// and analyzer failures.
func TestStreamWindowedErrors(t *testing.T) {
	ref := uarch.Baseline()
	st := stream(t, "458.sjeng", 200)
	opt := deg.WindowOptions{Window: 50, ReorderWindow: ref.ROBEntries}
	if _, err := streamWindowed(ref, nil, opt); err == nil {
		t.Fatal("empty stream accepted")
	}
	bad := ref
	bad.IntRF = 2
	if _, err := streamWindowed(bad, st, opt); err == nil {
		t.Fatal("invalid config accepted")
	}
	opt.Overlap = ref.ROBEntries - 1 // would clip in-flight producers
	if _, err := streamWindowed(ref, st, opt); err == nil {
		t.Fatal("overlap below the reorder window accepted")
	}
}

// TestIPCErrors: the monotonicity metric refuses invalid configs and empty
// streams.
func TestIPCErrors(t *testing.T) {
	bad := uarch.Baseline()
	bad.IntRF = 2
	if _, err := IPC(bad, stream(t, "458.sjeng", 200)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := IPC(uarch.Baseline(), nil); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestCheckGrowthPropagatesErrors: a simulation failure inside the growth
// pair surfaces as an error, not a verdict.
func TestCheckGrowthPropagatesErrors(t *testing.T) {
	space := uarch.StandardSpace()
	pt := space.Nearest(uarch.Baseline())
	did, err := CheckGrowth(space, pt, uarch.ParamROB, nil, "wl", 0)
	if !did || err == nil {
		t.Fatalf("empty-stream growth check: checked=%v err=%v", did, err)
	}
}

// TestGrowthViolationError: the report prints the parameter, workload,
// both IPCs, and both configs.
func TestGrowthViolationError(t *testing.T) {
	base := uarch.Baseline()
	grown := base
	grown.ROBEntries = base.ROBEntries * 2
	v := &GrowthViolation{
		Param: uarch.ParamROB, Workload: "429.mcf",
		Base: base, Grown: grown, BaseIPC: 1.5, GrownIPC: 1.25,
	}
	for _, want := range []string{"ROB", "429.mcf", "1.5", "1.25", "base:", "grown:"} {
		if !strings.Contains(v.Error(), want) {
			t.Fatalf("violation report %q missing %q", v.Error(), want)
		}
	}
}
