package ooo

import (
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// aliasConfigs mixes predictor front ends and window sizes, so traces that
// are live at the same time differ in timing and in annotation storage.
func aliasConfigs() []uarch.Config {
	wide := uarch.Baseline()
	wide.Width = 6
	wide.ROBEntries = 224
	wide.LocalPredictor = 2048
	wide.BTBEntries = 4096
	narrow := uarch.Baseline()
	narrow.Width = 2
	narrow.GlobalPredictor = 2048
	narrow.RASEntries = 16
	return []uarch.Config{uarch.Baseline(), tightConfig(), wide, narrow}
}

// TestRunNoTraceAliasing extends the GetTrace/Release contract to traces
// that are live at the same time, the way the evaluator holds one per in-flight
// (config, workload) job: runs of different configs over one shared stream
// return pairwise distinct traces with distinct record storage, no run
// writes into another's live trace, and recycling the traces between
// rounds — in alternating order, so configs draw each other's storage —
// leaves every fingerprint unchanged. (The double-Release pin for the
// underlying bug class lives with the pool: pipetrace's
// TestTraceReleaseTwicePanics.)
func TestRunNoTraceAliasing(t *testing.T) {
	cfgs := aliasConfigs()
	seedPinned := map[int]string{0: "baseline", 1: "tight"} // cfgs index -> seedFingerprints key
	for _, name := range parityWorkloads {
		t.Run(name, func(t *testing.T) {
			var want []uint64
			for round := 0; round < 3; round++ {
				trs := make([]*pipetrace.Trace, len(cfgs))
				sts := make([]*Stats, len(cfgs))
				for k := range cfgs {
					i := k
					if round%2 == 1 {
						i = len(cfgs) - 1 - k
					}
					trs[i], sts[i] = runParityWorkload(t, name, cfgs[i])
				}
				for i, a := range trs {
					for j := i + 1; j < len(trs); j++ {
						b := trs[j]
						if a == b {
							t.Fatalf("round %d: configs %d and %d share a *Trace", round, i, j)
						}
						if &a.Records[0] == &b.Records[0] {
							t.Fatalf("round %d: configs %d and %d share record storage", round, i, j)
						}
					}
				}
				// Fingerprints are taken once every run of the round has
				// finished, so a run that wrote into a live trace shows here.
				for i := range trs {
					got := traceFingerprint(trs[i], sts[i])
					if round == 0 {
						if key, ok := seedPinned[i]; ok && got != seedFingerprints[key][name] {
							t.Fatalf("config %s: fingerprint %#x with other traces live, pinned %#x",
								key, got, seedFingerprints[key][name])
						}
						want = append(want, got)
					} else if got != want[i] {
						t.Fatalf("round %d config %d: fingerprint %#x != first round %#x (recycled storage leaked state)",
							round, i, got, want[i])
					}
				}
				for _, tr := range trs {
					tr.Release()
				}
			}
		})
	}
}
