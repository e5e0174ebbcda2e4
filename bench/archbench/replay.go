package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"archexplorer/internal/deg"
	"archexplorer/internal/dse"
	"archexplorer/internal/isa"
	"archexplorer/internal/mcpat"
	"archexplorer/internal/ooo"
	"archexplorer/internal/par"
	"archexplorer/internal/pareto"
	"archexplorer/internal/persist"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// layers accumulates the outside-in replay: every layer call a campaign
// made, re-issued one at a time through the layer's public API and timed
// from the harness.
type layers struct {
	trace, oooNew, run, runDEG, mcpat   time.Duration
	build, path, attr, merge            time.Duration
	windowed, fused                     time.Duration
	hv, save                            time.Duration
	calls                               int
	records, edges, dropped, windows    int64
	peakEdges, peakBuffered, savedBytes int
	// stageWork sums the calls that mirror the evaluator's own stages (the
	// reference AnalyzeWindowed pass of streamed evaluations does not), so
	// stageWork ÷ StageTotals is how much of the campaign's worker time the
	// replay accounts for.
	stageWork time.Duration
}

// timed runs fn and adds its duration to every accumulator given.
func timed(fn func(), into ...*time.Duration) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	for _, p := range into {
		*p += d
	}
	return d
}

// replay re-issues every evaluation of ev's history and checks that the
// layers reproduce it: full-evaluation IPC equals PerWorkloadIPC, merged
// DEG reports are bit-identical to Evaluation.Report, and streamed reports
// equal the single-worker AnalyzeWindowed report.
func (s *spec) replay(ev *dse.Evaluator, seed int64) (*layers, error) {
	l := &layers{}
	for i, e := range ev.History {
		if e.Failed {
			continue
		}
		if err := l.evaluation(ev, e); err != nil {
			return nil, fmt.Errorf("replay of evaluation %d (%s): %w", i, e.Config, err)
		}
	}
	pts := ev.PointsUpTo(s.hvBudget(ev))
	timed(func() { pareto.Hypervolume(pts, pareto.StandardReference) }, &l.hv)
	return l, l.persist(s, ev, seed)
}

func (l *layers) evaluation(ev *dse.Evaluator, e *dse.Evaluation) error {
	n := ev.TraceLen
	if e.Probe {
		n = probeLen(ev)
	}
	withDEG := e.Report != nil
	streamed := withDEG && ev.DEGStream && !e.Probe
	if withDEG && !streamed && ev.DEGWindow > 0 {
		return fmt.Errorf("buffered windowed analysis is not replayed")
	}
	var reports []*deg.Report
	for k, wl := range ev.Workloads {
		var stream []isa.Inst
		var err error
		timed(func() { stream, err = workload.CachedTrace(wl, n) }, &l.trace, &l.stageWork)
		if err != nil {
			return err
		}
		var stats *ooo.Stats
		var rep *deg.Report
		if streamed {
			stats, rep, err = l.streamed(ev, e.Config, stream)
		} else {
			stats, rep, err = l.buffered(e.Config, stream, withDEG)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		timed(func() { _, err = mcpat.Evaluate(e.Config, stats) }, &l.mcpat, &l.stageWork)
		if err != nil {
			return err
		}
		if !e.Probe && stats.IPC() != e.PerWorkloadIPC[k] {
			return fmt.Errorf("%s: replayed IPC %v, evaluation recorded %v", wl.Name, stats.IPC(), e.PerWorkloadIPC[k])
		}
		reports = append(reports, rep)
	}
	if !withDEG {
		return nil
	}
	var merged *deg.Report
	var err error
	timed(func() { merged, err = deg.Merge(reports, ev.Weights) }, &l.merge)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(*merged, *e.Report) {
		return fmt.Errorf("merged replay report differs from Evaluation.Report")
	}
	return nil
}

// buffered replays the evaluator's materialized path: ooo.New, Core.Run
// (annotated, for DEG) or Core.RunLite, and whole-trace DEG analysis as
// Build, Construct and Attribute.
func (l *layers) buffered(cfg uarch.Config, stream []isa.Inst, withDEG bool) (*ooo.Stats, *deg.Report, error) {
	var core *ooo.Core
	var err error
	timed(func() { core, err = ooo.New(cfg) }, &l.oooNew, &l.stageWork)
	if err != nil {
		return nil, nil, err
	}
	var tr *pipetrace.Trace
	var stats *ooo.Stats
	run := core.RunLite
	if withDEG {
		run = core.Run
	}
	d := timed(func() { tr, stats, err = run(stream) }, &l.run, &l.stageWork)
	if err != nil {
		return nil, nil, err
	}
	defer tr.Release()
	l.calls++
	l.records += int64(len(tr.Records))
	if !withDEG {
		return stats, nil, nil
	}
	l.runDEG += d

	var g *deg.Graph
	timed(func() { g, err = deg.Build(tr, deg.Options{}) }, &l.build, &l.stageWork)
	if err != nil {
		return nil, nil, err
	}
	l.edges += int64(g.NumEdges())
	l.dropped += int64(g.Dropped())
	var cp *deg.CriticalPath
	timed(func() { cp, err = g.Construct() }, &l.path, &l.stageWork)
	if err != nil {
		return nil, nil, err
	}
	var rep *deg.Report
	timed(func() { rep = deg.Attribute(tr, cp) }, &l.attr, &l.stageWork)
	return stats, rep, nil
}

// streamed replays the evaluator's fused stage — Core.RunStream feeding a
// StreamAnalyzer with the evaluator's worker count — and then the buffered
// reference the fused report must equal: Core.Run plus AnalyzeWindowed
// with one worker.
func (l *layers) streamed(ev *dse.Evaluator, cfg uarch.Config, stream []isa.Inst) (*ooo.Stats, *deg.Report, error) {
	opts := deg.WindowOptions{Window: ev.DEGWindow, Overlap: ev.DEGOverlap, ReorderWindow: cfg.ROBEntries}
	var stats *ooo.Stats
	var rep *deg.Report
	var ws *deg.WindowStats
	var peak int
	var err error
	timed(func() {
		stats, rep, ws, peak, err = l.fusedRun(cfg, stream, opts)
	}, &l.fused, &l.stageWork)
	if err != nil {
		return nil, nil, err
	}
	l.calls++
	l.windows += int64(ws.Windows)
	l.peakEdges = max(l.peakEdges, ws.PeakEdges)
	l.peakBuffered = max(l.peakBuffered, peak)
	l.dropped += int64(ws.Dropped())

	var core *ooo.Core
	timed(func() { core, err = ooo.New(cfg) }, &l.oooNew)
	if err != nil {
		return nil, nil, err
	}
	var tr *pipetrace.Trace
	timed(func() { tr, _, err = core.Run(stream) }, &l.run)
	if err != nil {
		return nil, nil, err
	}
	defer tr.Release()
	l.calls++
	l.records += int64(len(tr.Records))
	var ref *deg.Report
	opts.Workers = 1
	timed(func() { ref, _, err = deg.AnalyzeWindowed(tr, opts) }, &l.windowed)
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(*rep, *ref) {
		return nil, nil, fmt.Errorf("fused report differs from AnalyzeWindowed (Workers=1)")
	}
	return stats, rep, nil
}

// streamDepth matches the evaluator's bounded channel between the
// simulating producer and the analyzing consumer.
const streamDepth = 2

// fusedRun is the evaluator's fused simulate+analyze stage built from the
// public calls: the simulator (this goroutine) emits chunks into a bounded
// channel that a consumer goroutine feeds to the stream analyzer. The
// consumer has exited before fusedRun returns.
func (l *layers) fusedRun(cfg uarch.Config, stream []isa.Inst, opts deg.WindowOptions) (*ooo.Stats, *deg.Report, *deg.WindowStats, int, error) {
	opts.Workers = par.DefaultLimit()
	sa, err := deg.NewStreamAnalyzer(opts)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	defer sa.Close()
	var core *ooo.Core
	timed(func() { core, err = ooo.New(cfg) }, &l.oooNew)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ch := make(chan *pipetrace.Chunk, streamDepth)
	done := make(chan struct{})
	var feedErr error
	go func() {
		defer close(done)
		for c := range ch {
			if feedErr = sa.Feed(c); feedErr != nil {
				return
			}
		}
	}()
	stats, simErr := core.RunStream(stream, ooo.DefaultChunkSize, func(c *pipetrace.Chunk) error {
		select {
		case ch <- c:
			return nil
		case <-done:
			c.Release()
			return feedErr
		}
	})
	close(ch)
	<-done
	for c := range ch {
		c.Release()
	}
	if feedErr != nil {
		return nil, nil, nil, 0, feedErr
	}
	if simErr != nil {
		return nil, nil, nil, 0, simErr
	}
	rep, ws, err := sa.Finish(stats.Cycles)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return stats, rep, ws, sa.PeakBufferedRecords(), nil
}

// persist times the campaign snapshot the CLI writes with -out, into a
// scratch directory under the working directory that is removed after.
func (l *layers) persist(s *spec, ev *dse.Evaluator, seed int64) error {
	dir, err := os.MkdirTemp(".", ".archbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "campaign.json")
	timed(func() {
		c := persist.FromEvaluator(s.method, s.suiteID, s.budget, ev)
		c.Seed = seed
		err = c.Save(path)
	}, &l.save)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	l.savedBytes = int(fi.Size())
	return nil
}
