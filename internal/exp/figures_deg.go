package exp

import (
	"fmt"
	"io"
	"slices"
	"time"

	"archexplorer/internal/calipers"
	"archexplorer/internal/deg"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "fig4",
		Paper: "Figure 4",
		Desc:  "Previous (static) DEG formulation: graph and critical path on a small execution",
		Run:   runFig4,
	})
	register(Experiment{
		Name:  "fig5",
		Paper: "Figure 5",
		Desc:  "Previous DEG error sources: critical-path length error and port-contention overestimation",
		Run:   runFig5,
	})
	register(Experiment{
		Name:  "fig9",
		Paper: "Figures 7-9",
		Desc:  "New DEG formulation + induced DEG walkthrough: critical path matches runtime",
		Run:   runFig9,
	})
	register(Experiment{
		Name:  "graphstats",
		Paper: "Footnote 5",
		Desc:  "Induced-DEG size versus the previous formulation and the longest-path overhead",
		Run:   runGraphStats,
	})
}

func calConfig(cfg uarch.Config) calipers.Config {
	return calipers.Config{
		ROBEntries: cfg.ROBEntries,
		IQEntries:  cfg.IQEntries,
		LQEntries:  cfg.LQEntries,
		SQEntries:  cfg.SQEntries,
		Width:      cfg.Width,
		RdWrPorts:  cfg.RdWrPorts,
	}
}

// runFig4 demonstrates the previous formulation on a small execution.
func runFig4(o Options, w io.Writer) error {
	o = o.Defaults()
	wl, err := workload.ByName("444.namd")
	if err != nil {
		return err
	}
	cfg := uarch.Baseline()
	tr, _, err := simulate(cfg, wl, 400)
	if err != nil {
		return err
	}
	g, err := calipers.Build(tr, calConfig(cfg))
	if err != nil {
		return err
	}
	res, err := g.CriticalPath()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: previous DEG formulation (static weights, producer-consumer edges)\n\n")
	fmt.Fprintf(w, "  vertices %d, edges %d\n", g.NumVertices(), g.NumEdges())
	fmt.Fprintf(w, "  critical path: %d edges, estimated length %d cycles\n", res.Edges, res.Length)
	fmt.Fprintf(w, "  actual simulated runtime: %d cycles (error %+.2f%%)\n",
		tr.Cycles, 100*float64(res.Length-tr.Cycles)/float64(tr.Cycles))
	return nil
}

// runFig5 quantifies the previous formulation's error sources across
// workloads: static weights misestimate the critical-path length (the paper
// reports a 25.71%% underestimation on 444.namd), and consecutive
// execute-to-execute port edges overestimate read/write-port pressure (the
// paper reports +125%% on 456.hmmer).
func runFig5(o Options, w io.Writer) error {
	o = o.Defaults()
	cfg := uarch.Baseline()
	fmt.Fprintf(w, "Figure 5: previous-DEG error analysis (static assignment, concurrent events)\n\n")
	fmt.Fprintf(w, "%-18s %10s %10s %9s %16s %16s\n", "workload", "actual", "oldDEG", "err%", "oldPortCycles", "newPortCycles")

	names := []string{"444.namd", "456.hmmer", "458.sjeng", "429.mcf", "462.libquantum", "401.bzip2"}
	if o.Fast {
		names = names[:3]
	}
	for _, name := range names {
		wl, err := workload.ByName(name)
		if err != nil {
			return err
		}
		tr, _, err := simulate(cfg, wl, o.TraceLen)
		if err != nil {
			return err
		}
		og, err := calipers.Build(tr, calConfig(cfg))
		if err != nil {
			return err
		}
		ores, err := og.CriticalPath()
		if err != nil {
			return err
		}
		rep, _, _, err := deg.Analyze(tr, deg.Options{})
		if err != nil {
			return err
		}
		errPct := 100 * float64(ores.Length-tr.Cycles) / float64(tr.Cycles)
		fmt.Fprintf(w, "%-18s %10d %10d %8.2f%% %16d %16d\n",
			name, tr.Cycles, ores.Length, errPct,
			ores.DelayByRes[uarch.ResRdWrPort], rep.DelayByRes[uarch.ResRdWrPort])
	}
	fmt.Fprintf(w, "\nThe previous formulation's length errors stem from static penalties and\n")
	fmt.Fprintf(w, "false producer-consumer dependence; its port attribution double-counts\n")
	fmt.Fprintf(w, "overlapped accesses, where the new DEG separates concurrent events.\n")
	return nil
}

// runFig9 walks through the new DEG on a small execution, printing the
// critical path and the telescoping identity the formulation guarantees.
func runFig9(o Options, w io.Writer) error {
	o = o.Defaults()
	wl, err := workload.ByName("458.sjeng")
	if err != nil {
		return err
	}
	cfg := uarch.Baseline()
	tr, _, err := simulate(cfg, wl, 300)
	if err != nil {
		return err
	}
	rep, g, cp, err := deg.Analyze(tr, deg.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figures 7-9: new DEG formulation and induced DEG\n\n")
	fmt.Fprintf(w, "  vertices %d, edges %d by kind %v\n", g.NumVertices, g.NumEdges(), g.EdgesByKind)
	fmt.Fprintf(w, "  critical path: %d vertices, cost %d, span %d of %d runtime cycles\n",
		len(cp.Vertices), cp.Cost, cp.Span, tr.Cycles)

	var sum int64
	for _, e := range cp.Edges {
		sum += e.Delay
	}
	fmt.Fprintf(w, "  telescoping check: sum of path delays = %d = span (exact)\n\n", sum)

	fmt.Fprintf(w, "  first critical-path hops:\n")
	limit := 14
	for i, e := range cp.Edges {
		if i >= limit {
			fmt.Fprintf(w, "    ... (%d more)\n", len(cp.Edges)-limit)
			break
		}
		fmt.Fprintf(w, "    %s(I%d) -> %s(I%d)  %-10s delay %d  (%s)\n",
			e.From.Stage(), e.From.Seq(), e.To.Stage(), e.To.Seq(), e.Kind, e.Delay, e.Res)
	}
	fmt.Fprintf(w, "\n%s", rep)
	return nil
}

// graphStatsPasses is how many timed passes each Footnote 5 cost is the
// median of, after one untimed pass that warms the caches and pools: one
// pass of a workload's simulation takes about a millisecond, so a single
// timed pass swings the ratio by tens of percent.
const graphStatsPasses = 5

// median returns the median of ds, sorting it in place.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// runGraphStats reproduces footnote 5: the induced DEG versus the previous
// formulation in vertices/edges (paper: +39.59%% vertices, -51.72%% edges on
// SPEC17), and the longest-path construction cost as a share of simulation
// runtime (paper: 2.24%%). Each pass simulates a workload and then builds
// and solves the graph of that pass's trace, timing the two apart; each
// cost is the median of graphStatsPasses passes.
func runGraphStats(o Options, w io.Writer) error {
	o = o.Defaults()
	cfg := uarch.Baseline()
	suite := workload.Suite17()
	if o.Fast {
		suite = suite[:4]
	}
	var vNew, eNew, vOld, eOld int
	var simTime, pathTime time.Duration
	for _, wl := range suite {
		var tr *pipetrace.Trace
		var g *deg.Graph
		var sims, paths [graphStatsPasses]time.Duration
		for i := -1; i < graphStatsPasses; i++ {
			tr.Release() // the previous pass's trace; nil-safe
			t0 := time.Now()
			var err error
			if tr, _, err = simulate(cfg, wl, o.TraceLen); err != nil {
				return err
			}
			t1 := time.Now()
			if g, err = deg.Build(tr, deg.Options{}); err != nil {
				return err
			}
			if _, err := g.Construct(); err != nil {
				return err
			}
			if i >= 0 {
				sims[i], paths[i] = t1.Sub(t0), time.Since(t1)
			}
		}
		simTime += median(sims[:])
		pathTime += median(paths[:])
		vNew += g.NumVertices
		eNew += g.NumEdges()

		og, err := calipers.Build(tr, calConfig(cfg))
		if err != nil {
			return err
		}
		vOld += og.NumVertices()
		eOld += og.NumEdges()
		tr.Release()
	}
	fmt.Fprintf(w, "Footnote 5: graph statistics over %d SPEC17-like workloads\n\n", len(suite))
	fmt.Fprintf(w, "  induced DEG:   %8d vertices  %8d edges\n", vNew, eNew)
	fmt.Fprintf(w, "  previous DEG:  %8d vertices  %8d edges\n", vOld, eOld)
	fmt.Fprintf(w, "  delta:         %+7.2f%% vertices  %+7.2f%% edges  (paper: +39.59%% / -51.72%%)\n",
		100*float64(vNew-vOld)/float64(vOld), 100*float64(eNew-eOld)/float64(eOld))
	fmt.Fprintf(w, "  graph build + longest path: %v versus %v simulation (%.2f%%, medians of %d passes; paper: 2.24%%)\n",
		pathTime.Round(time.Millisecond), simTime.Round(time.Millisecond),
		100*float64(pathTime)/float64(simTime), graphStatsPasses)
	return nil
}
