package exp

import (
	"fmt"
	"io"

	"archexplorer/internal/dse"
	"archexplorer/internal/pareto"
	"archexplorer/internal/uarch"
)

func init() {
	register(Experiment{
		Name:  "ablation",
		Paper: "(extension)",
		Desc:  "ArchExplorer design-choice ablations: shrinking, cheap probes, start screening",
		Run:   runAblation,
	})
	register(Experiment{
		Name:  "sec2stats",
		Paper: "Section 2.2",
		Desc:  "Per-workload rename-stall necessity at the baseline (motivating statistics)",
		Run:   runSec2Stats,
	})
}

// runAblation quantifies how much each ArchExplorer design choice
// contributes to the hypervolume-per-budget result: disabling budget
// reclamation (NoShrink), stepping on full evaluations instead of cheap
// probes (NoProbe), and starting walks unscreened (NoScreenStart).
func runAblation(o Options, w io.Writer) error {
	o = o.Defaults()
	suite, err := suiteByName("SPEC06")
	if err != nil {
		return err
	}
	variants := []struct {
		name string
		mk   func(seed int64) *dse.ArchExplorer
	}{
		{"full", func(s int64) *dse.ArchExplorer { return dse.NewArchExplorer(s) }},
		{"-shrink", func(s int64) *dse.ArchExplorer {
			a := dse.NewArchExplorer(s)
			a.NoShrink = true
			return a
		}},
		{"-probes", func(s int64) *dse.ArchExplorer {
			a := dse.NewArchExplorer(s)
			a.NoProbe = true
			return a
		}},
		{"-screening", func(s int64) *dse.ArchExplorer {
			a := dse.NewArchExplorer(s)
			a.NoScreenStart = true
			return a
		}},
		{"topk=1", func(s int64) *dse.ArchExplorer {
			a := dse.NewArchExplorer(s)
			a.TopK = 1
			return a
		}},
	}

	fmt.Fprintf(w, "ArchExplorer ablations on SPEC06-like suite, budget %d sims, %d seed(s)\n\n",
		o.Budget, o.Seeds)
	fmt.Fprintf(w, "%-12s %12s %12s %14s\n", "variant", "HV@half", "HV@full", "full evals")
	grid, err := exploreGrid(o, len(variants), o.Seeds, func(vi int, seed int64, cellSpan int64) (*dse.Evaluator, error) {
		ev := newEvaluator(o, suite)
		ev.SpanParent = cellSpan
		if err := cellCheckpoint(o, ev, "ablation-"+variants[vi].name, seed); err != nil {
			return nil, err
		}
		if err := variants[vi].mk(seed).Run(ev, o.Budget); err != nil {
			return nil, err
		}
		return ev, nil
	})
	if err != nil {
		return err
	}
	for vi, v := range variants {
		var hvHalf, hvFull float64
		evals := 0
		for _, ev := range grid[vi] {
			hvHalf += pareto.Hypervolume(ev.PointsUpTo(float64(o.Budget/2)), hvReference) / float64(o.Seeds)
			hvFull += pareto.Hypervolume(ev.PointsUpTo(float64(o.Budget)), hvReference) / float64(o.Seeds)
			evals += len(ev.Points())
		}
		fmt.Fprintf(w, "%-12s %12.4f %12.4f %14d\n", v.name, hvHalf, hvFull, evals/o.Seeds)
	}
	return nil
}

// runSec2Stats reproduces the Section 2.2 motivating measurement: the share
// of instructions stalled at rename per blocking resource, at the Table 1
// baseline (the paper reports 25.71%% for 657.xz_s and 18.94%% for
// 625.x264_s stalled on integer registers).
func runSec2Stats(o Options, w io.Writer) error {
	o = o.Defaults()
	cfg := uarch.Baseline()
	names := []string{"657.xz_s", "625.x264_s", "600.perlbench_s", "619.lbm_s", "605.mcf_s", "631.deepsjeng_s"}
	if o.Fast {
		names = names[:3]
	}
	fmt.Fprintf(w, "Section 2.2: rename-stall necessity at the baseline\n\n")
	fmt.Fprintf(w, "%-18s %8s %8s %8s %8s %8s %8s\n", "workload", "IntRF", "FpRF", "ROB", "IQ", "LQ", "SQ")
	for _, name := range names {
		wl, err := lookup(name)
		if err != nil {
			return err
		}
		st, err := simulateStats(cfg, wl, o.TraceLen)
		if err != nil {
			return err
		}
		pct := func(r uarch.Resource) float64 {
			return 100 * float64(st.RenameStalls[r]) / float64(st.Committed)
		}
		fmt.Fprintf(w, "%-18s %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			name, pct(uarch.ResIntRF), pct(uarch.ResFpRF), pct(uarch.ResROB),
			pct(uarch.ResIQ), pct(uarch.ResLQ), pct(uarch.ResSQ))
	}
	fmt.Fprintf(w, "\npaper: 25.71%% of 657.xz_s and 18.94%% of 625.x264_s instructions\n")
	fmt.Fprintf(w, "stall at rename for physical integer registers.\n")
	return nil
}
