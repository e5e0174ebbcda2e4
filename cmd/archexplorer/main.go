// Command archexplorer runs the full bottleneck-removal-driven design-space
// exploration over the Table 4 space and prints the explored Pareto
// frontier with its hypervolume.
//
// Usage:
//
//	archexplorer -suite SPEC06 -budget 1200 -seed 1
//	archexplorer -suite SPEC17 -method BOOM-Explorer   (run a baseline instead)
//	archexplorer -budget 120 -journal run.jsonl        (then: obsreport run.jsonl)
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"archexplorer/internal/cli"
	"archexplorer/internal/dse"
	"archexplorer/internal/obs"
	"archexplorer/internal/pareto"
	"archexplorer/internal/persist"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

func main() {
	cli.Init("archexplorer")
	var (
		suiteName = flag.String("suite", "SPEC06", "workload suite: SPEC06 or SPEC17")
		budget    = flag.Int("budget", 720, "simulation budget (full config-workload runs)")
		traceLen  = flag.Int("tracelen", 4000, "instructions per full evaluation")
		seed      = flag.Int64("seed", 1, "random seed")
		method    = flag.String("method", "ArchExplorer", "ArchExplorer | Random | AdaBoost | BOOM-Explorer | ArchRanker")
		parallel  = flag.Int("parallel", 0, "concurrent simulations per evaluation (0 = all cores, 1 = sequential)")
		out       = flag.String("out", "", "write the exploration campaign to this JSON file")
		tele      cli.Telemetry
		ckpt      cli.Checkpoint
		resil     cli.Resilience
		degf      cli.DEG
	)
	tele.AddTelemetryFlags(flag.CommandLine)
	ckpt.AddCheckpointFlags(flag.CommandLine)
	resil.AddResilienceFlags(flag.CommandLine)
	degf.AddDEGFlags(flag.CommandLine)
	flag.Parse()

	var suite []workload.Profile
	switch strings.ToUpper(*suiteName) {
	case "SPEC06":
		suite = workload.Suite06()
	case "SPEC17":
		suite = workload.Suite17()
	default:
		cli.Usagef("unknown suite %q", *suiteName)
	}

	var ex dse.Explorer
	switch *method {
	case "ArchExplorer":
		ex = dse.NewArchExplorer(*seed)
	case "Random":
		ex = &dse.RandomSearch{Seed: *seed}
	case "AdaBoost":
		ex = dse.NewAdaBoostDSE(*seed)
	case "BOOM-Explorer":
		ex = dse.NewBOOMExplorer(*seed)
	case "ArchRanker":
		ex = dse.NewArchRankerDSE(*seed)
	default:
		cli.Usagef("unknown method %q", *method)
	}

	rec, stopTelemetry, err := tele.Start()
	cli.Check(err)

	ref := pareto.StandardReference
	rec.Emit(&obs.RunStart{
		Tool: "archexplorer", Method: ex.Name(), Suite: strings.ToUpper(*suiteName),
		Budget: *budget, TraceLen: *traceLen, Parallelism: *parallel,
		HVRef: [3]float64{ref.Perf, ref.Power, ref.Area},
		Time:  time.Now().Format(time.RFC3339),
	})

	// The campaign span is the root of the run's self-DEG: everything the
	// evaluator and explorer emit parents under it, so obsreport
	// -critical-path can attribute the whole wall-clock.
	campaignSpan, endCampaign := rec.CampaignSpan("archexplorer/" + ex.Name())

	ev := dse.NewEvaluator(uarch.StandardSpace(), suite, *traceLen)
	ev.Parallelism = *parallel
	ev.Obs = rec
	ev.SpanParent = campaignSpan
	resil.Apply(ev)
	degf.Apply(ev)
	if err := ckpt.Wire(ev, ex.Name(), strings.ToUpper(*suiteName), *budget, *seed, rec); err != nil {
		stopTelemetry()
		cli.Fatal(err)
	}
	fmt.Printf("%s on %s (%d workloads), budget %d simulations\n",
		ex.Name(), *suiteName, len(suite), *budget)
	start := time.Now()
	if err := ex.Run(ev, *budget); err != nil {
		stopTelemetry()
		cli.Fatal(err)
	}
	st := ev.StageTotals()
	fmt.Printf("wall-clock %v (worker time: sim %v, power %v, analysis %v, traces %v)\n",
		time.Since(start).Round(time.Millisecond), st.Sim.Round(time.Millisecond),
		st.Power.Round(time.Millisecond), st.DEG.Round(time.Millisecond),
		st.Trace.Round(time.Millisecond))

	pts := ev.PointsUpTo(float64(*budget))
	fr := pareto.Frontier(pts)
	hv := pareto.Hypervolume(pts, ref)
	fmt.Printf("\nspent %.1f simulations, %d designs explored, %d full evaluations\n",
		ev.Sims, len(pts), len(ev.Points()))
	fmt.Printf("Pareto hypervolume: %.4f\n\n", hv)

	endCampaign()
	rec.Emit(&obs.RunEnd{
		Tool: "archexplorer", Sims: ev.Sims, HV: hv,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Metrics:   rec.Registry().Snapshot(),
	})
	stopTelemetry()

	fmt.Printf("Pareto frontier (%d designs):\n", len(fr))
	fmt.Printf("%8s %10s %10s %12s\n", "IPC", "power(W)", "area(mm2)", "Perf2/(PxA)")
	for _, p := range fr {
		fmt.Printf("%8.4f %10.4f %10.3f %12.4f\n",
			p.Perf, p.Power, p.Area, p.Perf*p.Perf/(p.Power*p.Area))
	}

	// Show the configuration of the best trade-off design.
	var best *dse.Evaluation
	for _, e := range ev.History {
		if e.Probe {
			continue
		}
		if best == nil || e.Tradeoff() > best.Tradeoff() {
			best = e
		}
	}
	if best != nil {
		fmt.Printf("\nbest trade-off design: %s\n", best.Config)
	}

	if *out != "" {
		c := persist.FromEvaluator(ex.Name(), *suiteName, *budget, ev)
		c.Seed = *seed
		c.Journal = tele.Journal
		cli.Check(c.Save(*out))
		fmt.Printf("campaign written to %s (%d designs)\n", *out, len(c.Designs))
	}
}
