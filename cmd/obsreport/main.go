// Command obsreport post-processes a JSONL run journal (written by the
// other binaries' -journal flag) into the run's story: where worker time
// went per pipeline stage, how well the evaluation cache did, how
// hypervolume grew as budget was spent, which resources the bottleneck
// analysis kept fingering iteration by iteration, and — for runs that hit
// trouble — the recovery timeline of retries, skips, checkpoints, and
// resumes.
//
// Usage:
//
//	archexplorer -suite SPEC06 -budget 120 -journal run.jsonl
//	obsreport run.jsonl
//	obsreport -iters 0 run.jsonl       # skip the per-iteration table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"archexplorer/internal/cli"
	"archexplorer/internal/obs"
	"archexplorer/internal/pareto"
	"archexplorer/internal/selfdeg"
)

func main() {
	cli.Init("obsreport")
	var (
		steps    = flag.Int("steps", 10, "budget steps in the hypervolume trajectory")
		iters    = flag.Int("iters", 40, "explorer iterations to list (0 = none, -1 = all)")
		critical = flag.Bool("critical-path", false, "print the campaign's own critical-path attribution from its span events instead of the stage report")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		cli.Usagef("usage: obsreport [flags] <run.jsonl>")
	}

	events, err := obs.LoadJournal(flag.Arg(0))
	cli.Check(err)
	if len(events) == 0 {
		cli.Fatalf("%s: empty journal", flag.Arg(0))
	}
	if *critical {
		cli.Check(criticalPath(os.Stdout, events))
		return
	}
	report(os.Stdout, events, *steps, *iters)
}

// criticalPath applies the repo's bottleneck method to the campaign
// itself: rebuild the run's execution dependency graph from its span
// events and attribute wall-clock to the longest path through it.
func criticalPath(w io.Writer, events []obs.Event) error {
	rep, err := selfdeg.Analyze(events)
	if err != nil {
		return err
	}
	rep.Format(w)
	return nil
}

// report renders the whole journal story to w. Split from main so tests can
// pin the output byte for byte.
func report(w io.Writer, events []obs.Event, steps, iters int) {
	var start *obs.RunStart
	var end *obs.RunEnd
	var iterEvents []*obs.IterEvent
	var grids []*obs.GridProgress
	var recovery []obs.Event
	spans := reduceSpans(events, &start, &end, &iterEvents, &grids, &recovery)

	printHeader(w, start, end, len(events))
	printStages(w, spans)
	printCache(w, end)
	printRecovery(w, recovery)
	printTrajectory(w, spans, start, end, steps)
	printIterations(w, iterEvents, iters)
	if len(grids) > 0 {
		last := grids[len(grids)-1]
		fmt.Fprintf(w, "campaign grid: %d/%d cells completed\n\n", last.Done, last.Total)
	}
}

// reduceSpans mirrors the evaluator's in-place history upgrades: a span
// that replaces another takes the superseded span's slot, so the result
// is ordered exactly like Evaluator.History and sums to StageTotals. Fault,
// checkpoint, and resume events are collected in journal order for the
// recovery timeline.
func reduceSpans(events []obs.Event, start **obs.RunStart, end **obs.RunEnd,
	iters *[]*obs.IterEvent, grids *[]*obs.GridProgress, recovery *[]obs.Event) []*obs.EvalSpan {
	var out []*obs.EvalSpan
	slot := map[int64]int{}
	for _, e := range events {
		switch v := e.(type) {
		case *obs.RunStart:
			if *start == nil {
				*start = v
			}
		case *obs.RunEnd:
			*end = v
		case *obs.IterEvent:
			*iters = append(*iters, v)
		case *obs.GridProgress:
			*grids = append(*grids, v)
		case *obs.FaultEvent, *obs.CheckpointEvent, *obs.ResumeEvent:
			*recovery = append(*recovery, v)
		case *obs.EvalSpan:
			if i, ok := slot[v.Replaces]; v.Replaces != 0 && ok {
				delete(slot, v.Replaces)
				out[i] = v
				slot[v.Span] = i
				continue
			}
			slot[v.Span] = len(out)
			out = append(out, v)
		}
	}
	return out
}

func printHeader(w io.Writer, start *obs.RunStart, end *obs.RunEnd, n int) {
	if start == nil {
		fmt.Fprintf(w, "journal: %d events (no run_start; partial journal?)\n\n", n)
		return
	}
	fmt.Fprintf(w, "run: %s", start.Tool)
	if start.Method != "" {
		fmt.Fprintf(w, " / %s", start.Method)
	}
	if start.Suite != "" {
		fmt.Fprintf(w, " on %s", start.Suite)
	}
	if start.Budget > 0 {
		fmt.Fprintf(w, ", budget %d", start.Budget)
	}
	if start.TraceLen > 0 {
		fmt.Fprintf(w, ", tracelen %d", start.TraceLen)
	}
	fmt.Fprintf(w, " (%d events)\n", n)
	if end != nil {
		fmt.Fprintf(w, "outcome: %.1f sims in %v", end.Sims, time.Duration(end.ElapsedNS).Round(time.Millisecond))
		if end.HV != 0 {
			fmt.Fprintf(w, ", final hypervolume %.4f", end.HV)
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintln(w, "outcome: no run_end event — the run did not finish cleanly")
	}
	fmt.Fprintln(w)
}

func printStages(w io.Writer, spans []*obs.EvalSpan) {
	if len(spans) == 0 {
		return
	}
	var trace, sim, power, deg, degStream time.Duration
	var insts int64
	evals, probes := 0, 0
	for _, s := range spans {
		trace += time.Duration(s.TraceNS)
		sim += time.Duration(s.SimNS)
		power += time.Duration(s.PowerNS)
		deg += time.Duration(s.DEGNS)
		degStream += time.Duration(s.DEGStreamNS)
		// Streamed evaluations carry their instructions with no sim time
		// (it is in DEGStreamNS), so only timed sim stages count toward
		// simulator throughput.
		if s.SimNS > 0 {
			insts += s.SimInsts
		}
		if s.Probe {
			probes++
		} else {
			evals++
		}
	}
	total := trace + sim + power + deg + degStream
	fmt.Fprintf(w, "stage-time breakdown (%d full evaluations, %d probes):\n", evals, probes)
	pct := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", "sim", sim.Round(time.Microsecond), pct(sim))
	fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", "analysis", deg.Round(time.Microsecond), pct(deg))
	// Fused sim+analysis stage of streamed evaluations; older journals and
	// buffered runs carry no such spans, so the row stays hidden for them.
	if degStream > 0 {
		fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", "sim+deg", degStream.Round(time.Microsecond), pct(degStream))
	}
	fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", "power", power.Round(time.Microsecond), pct(power))
	fmt.Fprintf(w, "  %-10s %12s %6.1f%%\n", "traces", trace.Round(time.Microsecond), pct(trace))
	fmt.Fprintf(w, "  %-10s %12s\n", "total", total.Round(time.Microsecond))
	// Older journals carry no sim_insts; keep their reports unchanged.
	if insts > 0 && sim > 0 {
		fmt.Fprintf(w, "  simulator throughput: %d insts in %s (%.0f insts/s)\n",
			insts, sim.Round(time.Microsecond), float64(insts)/sim.Seconds())
	}
	fmt.Fprintf(w, "\n")
}

func printCache(w io.Writer, end *obs.RunEnd) {
	if end == nil || end.Metrics == nil {
		return
	}
	hits := end.Metrics[obs.MetricCacheHits]
	misses := end.Metrics[obs.MetricCacheMisses]
	upgrades := end.Metrics[obs.MetricCacheUpgrades]
	if hits+misses == 0 {
		return
	}
	fmt.Fprintf(w, "evaluation cache: %.0f hits / %.0f lookups (%.1f%% hit rate), %.0f DEG upgrades\n\n",
		hits, hits+misses, 100*hits/(hits+misses), upgrades)
}

// printRecovery renders the fault-tolerance story: every retry, skip,
// failed snapshot, checkpoint, and resume, in journal order, followed by a
// one-line tally.
func printRecovery(w io.Writer, recovery []obs.Event) {
	if len(recovery) == 0 {
		return
	}
	fmt.Fprintf(w, "recovery timeline (%d events):\n", len(recovery))
	var retries, timeouts, skips, ckptFails int
	var checkpoints, resumes int
	lastCkpt := ""
	for _, e := range recovery {
		switch v := e.(type) {
		case *obs.ResumeEvent:
			resumes++
			fmt.Fprintf(w, "  resume      %d designs replayed from %s (%d skipped), %.1f sims already spent\n",
				v.Designs, pathBase(v.Path), v.Skipped, v.Sims)
		case *obs.CheckpointEvent:
			// Checkpoints dominate a healthy journal; fold the run of them
			// into the tally and print only the site changes.
			checkpoints++
			lastCkpt = fmt.Sprintf("%d designs, %.1f sims", v.Designs, v.Sims)
		case *obs.FaultEvent:
			switch v.Action {
			case "retry":
				retries++
				if v.Class == "timeout" {
					timeouts++
				}
				fmt.Fprintf(w, "  retry       %s %s on %s (attempt %d, backoff %v)\n",
					v.Class, v.Site, v.Workload, v.Attempt, time.Duration(v.BackoffNS))
			case "skip":
				skips++
				fmt.Fprintf(w, "  skip        %s failure at point %v: %s\n", v.Site, v.Point, v.Err)
			case "checkpoint-failed":
				ckptFails++
				fmt.Fprintf(w, "  ckpt-failed %s\n", v.Err)
			default:
				fmt.Fprintf(w, "  %-11s %s %s\n", v.Action, v.Class, v.Site)
			}
		}
	}
	if checkpoints > 0 {
		fmt.Fprintf(w, "  checkpoint  ×%d, last at %s\n", checkpoints, lastCkpt)
	}
	fmt.Fprintf(w, "recovered: %d retries (%d timeouts), %d designs skipped, %d checkpoints (%d failed), %d resumes\n\n",
		retries, timeouts, skips, checkpoints, ckptFails, resumes)
}

// pathBase trims a checkpoint path to its final element so journals remain
// comparable across machines and temp directories.
func pathBase(p string) string {
	if p == "" {
		return "(unnamed)"
	}
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

func printTrajectory(w io.Writer, spans []*obs.EvalSpan, start *obs.RunStart, end *obs.RunEnd, steps int) {
	if len(spans) == 0 || steps <= 0 {
		return
	}
	ref := pareto.StandardReference
	if start != nil && start.HVRef != [3]float64{} {
		ref = pareto.Reference{Perf: start.HVRef[0], Power: start.HVRef[1], Area: start.HVRef[2]}
	}
	budget := 0.0
	if start != nil && start.Budget > 0 {
		budget = float64(start.Budget)
	}
	maxAt := 0.0
	for _, s := range spans {
		if s.SimsAt > maxAt {
			maxAt = s.SimsAt
		}
	}
	if budget == 0 {
		budget = maxAt
	}
	hvAt := func(b float64) float64 {
		var pts []pareto.Point
		for _, s := range spans {
			if s.SimsAt > b {
				continue
			}
			pts = append(pts, pareto.Point{Perf: s.Perf, Power: s.PowerW, Area: s.AreaMM2})
		}
		return pareto.Hypervolume(pts, ref)
	}
	fmt.Fprintf(w, "hypervolume vs budget (reference perf=%g power=%g area=%g):\n", ref.Perf, ref.Power, ref.Area)
	fmt.Fprintf(w, "  %10s %12s\n", "sims", "hypervolume")
	for i := 1; i <= steps; i++ {
		b := budget * float64(i) / float64(steps)
		fmt.Fprintf(w, "  %10.1f %12.4f\n", b, hvAt(b))
	}
	final := hvAt(budget)
	fmt.Fprintf(w, "  final (budget %.0f): %.4f", budget, final)
	if end != nil && end.HV != 0 {
		if d := final - end.HV; d < 1e-9 && d > -1e-9 {
			fmt.Fprintf(w, "  — matches the run's reported hypervolume")
		} else {
			fmt.Fprintf(w, "  — run reported %.4f (journal incomplete?)", end.HV)
		}
	}
	fmt.Fprint(w, "\n\n")
}

func printIterations(w io.Writer, iters []*obs.IterEvent, limit int) {
	steps := iters[:0:0]
	phases := map[string]int{}
	topCount := map[string]int{}
	for _, it := range iters {
		if it.Phase != "" {
			phases[it.Explorer+" "+it.Phase]++
			continue
		}
		steps = append(steps, it)
		if len(it.Top) > 0 {
			topCount[it.Top[0].Res]++
		}
	}
	if len(phases) > 0 {
		var keys []string
		for k := range phases {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "explorer phases:")
		for _, k := range keys {
			fmt.Fprintf(w, "  %s ×%d", k, phases[k])
		}
		fmt.Fprint(w, "\n\n")
	}
	if len(steps) == 0 {
		return
	}
	if len(topCount) > 0 {
		type rc struct {
			res string
			n   int
		}
		var ranked []rc
		for r, n := range topCount {
			ranked = append(ranked, rc{r, n})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].n != ranked[j].n {
				return ranked[i].n > ranked[j].n
			}
			return ranked[i].res < ranked[j].res
		})
		fmt.Fprintf(w, "top bottleneck across %d iterations:", len(steps))
		for _, r := range ranked {
			fmt.Fprintf(w, "  %s ×%d", r.res, r.n)
		}
		fmt.Fprint(w, "\n\n")
	}
	if limit == 0 {
		return
	}
	shown := steps
	if limit > 0 && len(shown) > limit {
		shown = shown[:limit]
	}
	fmt.Fprintf(w, "iterations (%d of %d):\n", len(shown), len(steps))
	fmt.Fprintf(w, "  %-9s %8s %10s %6s  %-28s %s\n", "walk/step", "sims", "hv", "best", "top bottlenecks", "resize")
	for _, it := range shown {
		var tops []string
		for _, c := range it.Top {
			tops = append(tops, fmt.Sprintf("%s %.2f", c.Res, c.Contrib))
		}
		resize := describeResize(it)
		fmt.Fprintf(w, "  %4d/%-4d %8.1f %10.4f %6.3f  %-28s %s\n",
			it.Walk, it.Step, it.Sims, it.HV, it.BestIPC, strings.Join(tops, ", "), resize)
	}
	if len(shown) < len(steps) {
		fmt.Fprintf(w, "  … %d more (rerun with -iters -1)\n", len(steps)-len(shown))
	}
	fmt.Fprintln(w)
}

func describeResize(it *obs.IterEvent) string {
	var parts []string
	if len(it.Grown) > 0 {
		parts = append(parts, compactNames("+", it.Grown))
	}
	if len(it.Shrunk) > 0 {
		parts = append(parts, compactNames("-", it.Shrunk))
	}
	if it.Improved {
		parts = append(parts, "improved")
	}
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, " ")
}

// compactNames folds repeated resize targets ("-IntRF,-IntRF,-IntRF" from
// a multi-level shrink) into "-IntRF×3", keeping first-occurrence order.
func compactNames(sign string, names []string) string {
	count := map[string]int{}
	var order []string
	for _, n := range names {
		if count[n] == 0 {
			order = append(order, n)
		}
		count[n]++
	}
	var out []string
	for _, n := range order {
		if count[n] > 1 {
			out = append(out, fmt.Sprintf("%s%s×%d", sign, n, count[n]))
		} else {
			out = append(out, sign+n)
		}
	}
	return strings.Join(out, ",")
}
