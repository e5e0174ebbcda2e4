// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run table5 -budget 2400 -seeds 3
//	experiments -run all -fast
//	experiments -run table5 -journal exp.jsonl -progress 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"archexplorer/internal/cli"
	"archexplorer/internal/exp"
	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
)

func main() {
	cli.Init("experiments")
	var (
		run      = flag.String("run", "", "experiment to run (see -list), or \"all\"")
		list     = flag.Bool("list", false, "list available experiments")
		budget   = flag.Int("budget", 0, "simulation budget for DSE experiments")
		traceLen = flag.Int("tracelen", 0, "instructions per workload evaluation")
		seeds    = flag.Int("seeds", 0, "seeds averaged in DSE comparisons")
		samples  = flag.Int("samples", 0, "design samples for fig1")
		parallel = flag.Int("parallel", 0, "concurrent simulations per evaluation (0 = all cores, 1 = sequential)")
		fast     = flag.Bool("fast", false, "shrink all experiments for a quick pass")
		ckptDir  = flag.String("checkpoint-dir", "", "snapshot every campaign grid cell into this directory")
		ckptInt  = flag.Duration("checkpoint-every", 30*time.Second, "minimum interval between per-cell snapshots; 0 snapshots every batch")
		resume   = flag.Bool("resume", false, "resume grid cells from their -checkpoint-dir snapshots where present")
		tele     cli.Telemetry
		resil    cli.Resilience
		degf     cli.DEG
	)
	tele.AddTelemetryFlags(flag.CommandLine)
	resil.AddResilienceFlags(flag.CommandLine)
	degf.AddDEGFlags(flag.CommandLine)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.List() {
			fmt.Printf("  %-12s %-12s %s\n", e.Name, e.Paper, e.Desc)
		}
		if *run == "" && !*list {
			os.Exit(2)
		}
		return
	}

	rec, stopTelemetry, err := tele.Start()
	cli.Check(err)
	defer stopTelemetry()

	if *resume && *ckptDir == "" {
		cli.Usagef("-resume requires -checkpoint-dir")
	}
	if *ckptDir != "" {
		cli.Check(os.MkdirAll(*ckptDir, 0o755))
	}
	opts := exp.Options{
		Budget:          *budget,
		TraceLen:        *traceLen,
		Seeds:           *seeds,
		Samples:         *samples,
		Parallelism:     *parallel,
		Obs:             rec,
		Fast:            *fast,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptInt,
		Resume:          *resume,
		Retry:           fault.Retry{Max: resil.Retries, Base: resil.RetryBase, Cap: resil.RetryCap},
		StageTimeout:    resil.StageTimeout,
		SkipFailures:    resil.SkipFailures,
		DEGWindow:       degf.Window,
	}
	// Campaign grids are multi-minute; surface cell completions live
	// whenever any telemetry is on.
	if rec != nil {
		opts.Progress = os.Stderr
	}

	names := []string{*run}
	if *run == "all" {
		names = names[:0]
		for _, e := range exp.List() {
			names = append(names, e.Name)
		}
	}
	start := time.Now()
	rec.Emit(&obs.RunStart{
		Tool: "experiments", Budget: *budget, TraceLen: *traceLen,
		Parallelism: *parallel, Time: time.Now().Format(time.RFC3339),
	})
	// Grid cells parent their spans under this run-wide campaign span, so
	// the journal holds one self-DEG tree even for "-run all".
	campaignSpan, endCampaign := rec.CampaignSpan("experiments")
	opts.SpanParent = campaignSpan
	for _, name := range names {
		e, err := exp.Get(name)
		cli.Check(err)
		fmt.Printf("==== %s (%s) ====\n", e.Name, e.Paper)
		expStart := time.Now()
		if err := e.Run(opts, os.Stdout); err != nil {
			cli.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Printf("(%s finished in %v)\n\n", e.Name, time.Since(expStart).Round(time.Millisecond))
	}
	endCampaign()
	rec.Emit(&obs.RunEnd{
		Tool: "experiments", ElapsedNS: time.Since(start).Nanoseconds(),
		Metrics: rec.Registry().Snapshot(),
	})
}
