// Command bottleneck simulates one microarchitecture on one workload and
// prints the critical-path bottleneck analysis report — the per-resource
// runtime contributions ArchExplorer's DSE consumes.
//
// Usage:
//
//	bottleneck -workload 458.sjeng -n 20000
//	bottleneck -workload 429.mcf -rob 128 -intrf 96 -width 6
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"archexplorer/internal/cli"
	"archexplorer/internal/deg"
	"archexplorer/internal/mcpat"
	"archexplorer/internal/obs"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

func main() {
	cli.Init("bottleneck")
	cfg := uarch.Baseline()
	var (
		wlName = flag.String("workload", "458.sjeng", "workload name (see Table 3)")
		n      = flag.Int("n", 10000, "instructions to simulate")
		all    = flag.Bool("all", false, "average the report over every workload")
		dotOut = flag.String("dot", "", "write the induced DEG as Graphviz DOT to this file (small -n only)")
		tele   cli.Telemetry
		degf   cli.DEG
	)
	flag.IntVar(&cfg.Width, "width", cfg.Width, "pipeline width")
	flag.IntVar(&cfg.ROBEntries, "rob", cfg.ROBEntries, "reorder buffer entries")
	flag.IntVar(&cfg.IQEntries, "iq", cfg.IQEntries, "issue queue entries")
	flag.IntVar(&cfg.LQEntries, "lq", cfg.LQEntries, "load queue entries")
	flag.IntVar(&cfg.SQEntries, "sq", cfg.SQEntries, "store queue entries")
	flag.IntVar(&cfg.IntRF, "intrf", cfg.IntRF, "physical integer registers")
	flag.IntVar(&cfg.FpRF, "fprf", cfg.FpRF, "physical floating-point registers")
	flag.IntVar(&cfg.IntALU, "intalu", cfg.IntALU, "integer ALUs")
	flag.IntVar(&cfg.DCacheKB, "dcache", cfg.DCacheKB, "L1 D$ size in KB")
	flag.IntVar(&cfg.ICacheKB, "icache", cfg.ICacheKB, "L1 I$ size in KB")
	tele.AddTelemetryFlags(flag.CommandLine)
	degf.AddDEGFlags(flag.CommandLine)
	flag.Parse()

	if err := cfg.Validate(); err != nil {
		cli.Usagef("%v", err)
	}
	if *dotOut != "" && (degf.Window > 0 || degf.Stream) {
		cli.Usagef("-dot needs the whole-trace graph; drop -deg-window/-deg-stream")
	}

	profiles := []workload.Profile{}
	if *all {
		profiles = workload.All()
	} else {
		p, err := workload.ByName(*wlName)
		cli.Check(err)
		profiles = append(profiles, p)
	}

	rec, stopTelemetry, err := tele.Start()
	cli.Check(err)
	defer stopTelemetry()
	rec.Emit(&obs.RunStart{
		Tool: "bottleneck", TraceLen: *n,
		Time: time.Now().Format(time.RFC3339),
	})
	start := time.Now()

	fmt.Printf("config: %s\n\n", cfg)
	var reports []*deg.Report
	for _, p := range profiles {
		var times [4]time.Duration // trace, sim, power, deg
		var streamDur time.Duration
		t0 := time.Now()
		stream, err := workload.CachedTrace(p, *n)
		cli.Check(err)
		times[0] = time.Since(t0)

		core, err := ooo.New(cfg)
		cli.Check(err)

		var stats *ooo.Stats
		var rep *deg.Report
		var g *deg.Graph
		var cp *deg.CriticalPath
		var ws *deg.WindowStats
		if degf.Stream {
			// Fused simulate+analyze: the simulator's chunks feed the
			// windowed analyzer directly and no full trace is materialized —
			// peak memory is the analyzer's window+margin working set.
			qwait := rec.Histogram(obs.MetricDEGQueueWait)
			sa, err := deg.NewStreamAnalyzer(deg.WindowOptions{
				Window: degf.Window, Overlap: degf.Overlap,
				ReorderWindow: cfg.ROBEntries,
				Workers:       degf.ResolvedWorkers(),
				OnQueueWait:   func(d time.Duration) { qwait.Observe(d.Seconds()) },
			})
			cli.Check(err)
			t0 = time.Now()
			stats, err = core.RunStream(stream, 0, sa.Feed)
			cli.Check(err)
			peak := sa.PeakBufferedRecords()
			rep, ws, err = sa.Finish(stats.Cycles)
			cli.Check(err)
			streamDur = time.Since(t0)
			fmt.Printf("streamed analysis: %d windows, peak %d edges / %d vertices, %d clipped deps, peak %d buffered records\n",
				ws.Windows, ws.PeakEdges, ws.PeakVertices, ws.ClippedDeps, peak)
		} else {
			t0 = time.Now()
			var tr *pipetrace.Trace
			tr, stats, err = core.Run(stream)
			cli.Check(err)
			times[1] = time.Since(t0)

			t0 = time.Now()
			if degf.Window > 0 {
				rep, ws, err = deg.AnalyzeWindowed(tr, deg.WindowOptions{
					Window: degf.Window, Overlap: degf.Overlap,
					ReorderWindow: cfg.ROBEntries,
					Workers:       degf.ResolvedWorkers(),
				})
				cli.Check(err)
				fmt.Printf("windowed analysis: %d windows, peak %d edges / %d vertices, %d clipped deps\n",
					ws.Windows, ws.PeakEdges, ws.PeakVertices, ws.ClippedDeps)
			} else {
				rep, g, cp, err = deg.Analyze(tr, deg.Options{})
				cli.Check(err)
			}
			times[3] = time.Since(t0)
		}
		if ws != nil {
			rec.Gauge(obs.MetricDEGWindows).Set(float64(ws.Windows))
			rec.Gauge(obs.MetricDEGPeakEdges).Set(float64(ws.PeakEdges))
			rec.Gauge(obs.MetricDEGWorkers).Set(float64(degf.ResolvedWorkers()))
			if d := ws.Dropped(); d > 0 {
				rec.Counter(obs.MetricDEGDrops).Add(int64(d))
			}
		}

		t0 = time.Now()
		pw, err := mcpat.Evaluate(cfg, stats)
		cli.Check(err)
		times[2] = time.Since(t0)
		reports = append(reports, rep)

		rec.Counter(obs.MetricEvaluations).Inc()
		rec.Histogram(obs.MetricStageTrace).Observe(times[0].Seconds())
		rec.Histogram(obs.MetricStagePower).Observe(times[2].Seconds())
		if degf.Stream {
			rec.Histogram(obs.MetricStageDEGStream).Observe(streamDur.Seconds())
		} else {
			rec.Histogram(obs.MetricStageSim).Observe(times[1].Seconds())
			rec.Histogram(obs.MetricStageDEG).Observe(times[3].Seconds())
		}
		span := &obs.EvalSpan{
			Span: rec.NextSpan(), Config: cfg.String() + " @ " + p.Name,
			SimsAt: float64(len(reports)), Perf: stats.IPC(), PowerW: pw.PowerW, AreaMM2: pw.AreaMM2,
			TraceNS: times[0].Nanoseconds(), SimNS: times[1].Nanoseconds(),
			PowerNS: times[2].Nanoseconds(), DEGNS: times[3].Nanoseconds(),
			DEGStreamNS: streamDur.Nanoseconds(),
			ElapsedNS:   (times[0] + times[1] + times[2] + times[3] + streamDur).Nanoseconds(),
		}
		if ws != nil {
			span.DEGWindows = ws.Windows
			span.DEGPeakEdges = ws.PeakEdges
			span.DEGDrops = int64(ws.Dropped())
		}
		rec.Emit(span)

		if *dotOut != "" && !*all {
			f, err := os.Create(*dotOut)
			cli.Check(err)
			cli.Check(g.WriteDOT(f, cp))
			cli.Check(f.Close())
			fmt.Printf("DEG written to %s\n", *dotOut)
		}
		fmt.Printf("%-18s IPC=%.4f  power=%.4f W  area=%.3f mm2  mispredict=%.2f%%  d$miss=%.2f%%\n",
			p.Name, stats.IPC(), pw.PowerW, pw.AreaMM2,
			100*stats.MispredictRate(),
			100*float64(stats.DCacheMisses)/float64(max(stats.DCacheAccesses, 1)))
		if !*all {
			fmt.Printf("\n%s", rep)
		}
	}
	if *all {
		merged, err := deg.Merge(reports, nil)
		cli.Check(err)
		fmt.Printf("\nEquation-2 weighted average across %d workloads:\n%s", len(reports), merged)
	}
	rec.Emit(&obs.RunEnd{
		Tool: "bottleneck", Sims: float64(len(reports)),
		ElapsedNS: time.Since(start).Nanoseconds(),
		Metrics:   rec.Registry().Snapshot(),
	})
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
