// Command archbench is the repository's end-to-end benchmark: one seeded
// design-space-exploration workload per process, measured in host time.
//
// Usage:
//
//	archbench -workload explore -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it runs set-up, one untimed warm-up campaign, then timed
// campaigns (each on a fresh evaluator, telemetry off) until -seconds have
// passed, and prints the medians of the end-to-end metrics, with times
// scaled to the reference host speed (see calibrate.go). With -trace 1 it
// runs three untraced campaigns and one journaled campaign, replays that
// campaign's history through each layer's public API one call at a time,
// and prints the per-layer metrics. Either way the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; the line
// before it carries the run's details (host, samples, checks). A failed
// correctness check exits 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"archexplorer/internal/obs"
	"archexplorer/internal/selfdeg"
)

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// minReps is the fewest timed campaigns an untraced run makes, however
	// short -seconds is; untracedReps is how many a traced run makes before
	// its journaled one.
	minReps, untracedReps int
	setupPasses           int
	pins                  pins
}

// details is the line printed before the result: enough to interpret and
// reproduce the numbers.
type details struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Trace      bool                 `json:"trace"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"nproc"`
	Go         string               `json:"go"`
	Reps       int                  `json:"reps"`
	Samples    map[string][]float64 `json:"samples,omitempty"`
	Outcome    signature            `json:"outcome"`
	Pinned     bool                 `json:"pinned"`
	// SimsToTarget is the budget at which HV first reached targetHV (-1:
	// never); FailedFrac is failed evaluations over evaluations attempted.
	SimsToTarget *float64 `json:"sims_to_target,omitempty"`
	FailedFrac   float64  `json:"failed_frac"`
	PaperRatio   float64  `json:"paper_path_over_sim,omitempty"`
	Violations   []string `json:"violations,omitempty"`
}

func main() {
	var (
		name    = flag.String("workload", "explore", "workload: explore, search-lite or analyze-stream")
		seed    = flag.Int64("seed", 1, "seed for the explorer and the design-point draw")
		seconds = flag.Int("seconds", 20, "minimum seconds of timed campaigns (untraced runs)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run and replay")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(os.Stderr, "archbench: bad arguments (workload %q, trace %d, seconds %d)\n", *name, *trace, *seconds)
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "archbench: GOMAXPROCS %d exceeds the %d CPUs available\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		os.Exit(2)
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintf(os.Stderr, "archbench: %v\n", err)
		os.Exit(1)
	}
	res, det, err := run(&s, options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		minReps: 3, untracedReps: 3, setupPasses: 7, pins: p,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "archbench: %v\n", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(det); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "archbench: correctness checks failed:\n  %s\n", strings.Join(det.Violations, "\n  "))
		os.Exit(1)
	}
}

// run executes one invocation. An error means the benchmark could not run
// at all; a run whose outputs are wrong returns a result with Correct
// false and the violations listed in the details.
func run(s *spec, o options) (*result, *details, error) {
	k := newKernel(runtime.GOMAXPROCS(0))
	setup, err := s.setup(k, o.setupPasses)
	if err != nil {
		return nil, nil, err
	}
	if _, err := s.runRep(k, o.seed, nil); err != nil { // warm-up, untimed
		return nil, nil, err
	}
	det := &details{
		Workload: s.name, Seed: o.seed, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
	}
	var reps []*rep
	start := time.Now()
	for len(reps) < o.untracedReps || (!o.trace && (len(reps) < o.minReps || time.Since(start) < o.seconds)) {
		r, err := s.runRep(k, o.seed, nil)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
	}

	var m map[string]float64
	list := endToEnd
	if o.trace {
		var tr *rep
		tr, m, err = s.traced(k, o, reps, det)
		if err != nil {
			return nil, nil, err
		}
		reps = append(reps, tr)
		list = perLayer
	} else {
		det.Samples = map[string][]float64{}
		add := func(name string, v float64) { det.Samples[name] = append(det.Samples[name], v) }
		for _, r := range reps {
			wall := r.refWall().Seconds()
			add("wall_s", wall)
			add("sims_per_s", r.ev.Sims/wall)
			add("minst_per_s", float64(r.simInsts)/1e6/wall)
		}
		m = map[string]float64{"setup_s": setup.Seconds()}
		for name, xs := range det.Samples {
			m[name] = median(xs)
		}
		for _, r := range reps {
			add("host_wall_s", r.wall.Seconds())
			add("kernel_s", r.kernel.Seconds())
		}
		if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, nil, err
		}
	}
	if len(m) != len(list) {
		return nil, nil, fmt.Errorf("computed %d metrics, declared %d", len(m), len(list))
	}
	res := &result{Metrics: map[string]value{}}
	for _, mt := range list {
		v, ok := m[mt.name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s not computed", mt.name)
		}
		res.Metrics[mt.name] = value{v, mt.unit}
	}

	det.Reps = len(reps)
	det.Outcome = reps[0].sig
	_, det.Pinned = o.pins[s.name][fmt.Sprint(o.seed)]
	if s.probes {
		st := simsToTarget(reps[0].ev)
		det.SimsToTarget = &st
	}
	for _, r := range reps {
		res.Attempted += len(r.ev.History)
		res.Failed += r.sig.Failed
	}
	det.FailedFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
	det.Violations = append(o.pins.check(s.name, o.seed, reps), det.Violations...)
	res.Correct = len(det.Violations) == 0
	return res, det, nil
}

// traced runs the journaled campaign, replays it layer by layer and
// returns the per-layer metrics. It also returns the journaled campaign so
// the caller's cross-rep agreement check covers it too.
func (s *spec) traced(k *kernel, o options, reps []*rep, det *details) (*rep, map[string]float64, error) {
	var journal bytes.Buffer
	rec := obs.New()
	rec.SetJournalWriter(&journal)
	tr, err := s.runRep(k, o.seed, rec)
	if err != nil {
		return nil, nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, nil, err
	}
	events, err := obs.ReadJournal(&journal)
	if err != nil {
		return nil, nil, err
	}
	crit, err := selfdeg.Analyze(events)
	if err != nil {
		return nil, nil, err
	}
	l, err := s.replay(tr.ev, o.seed)
	if err != nil {
		det.Violations = append(det.Violations, err.Error())
		l = &layers{}
	}
	if l.dropped > 0 {
		det.Violations = append(det.Violations, fmt.Sprintf("replay dropped %d DEG edges, want 0", l.dropped))
	}

	ev := tr.ev
	var untraced, elapsed []float64
	for _, r := range reps {
		untraced = append(untraced, r.refWall().Seconds())
	}
	for _, r := range append(reps, tr) {
		for _, e := range r.ev.History {
			elapsed = append(elapsed, ms(e.Elapsed))
		}
	}
	var evals, probes int
	for _, e := range ev.History {
		if e.Probe {
			probes++
		} else {
			evals++
		}
	}
	st := ev.StageTotals()
	hits := rec.Counter(obs.MetricCacheHits).Value()
	lookups := hits + rec.Counter(obs.MetricCacheMisses).Value() + rec.Counter(obs.MetricCacheUpgrades).Value()
	frac := func(classes ...string) float64 {
		var f float64
		for _, c := range classes {
			f += crit.Share(c).Frac
		}
		return f
	}

	m := map[string]float64{
		"ooo.run_ms":              ms(l.run),
		"ooo.minst_per_s":         ratio(float64(l.records)/1e6, l.run.Seconds()),
		"ooo.new_ms":              ms(l.oooNew),
		"ooo.calls":               float64(l.calls),
		"deg.build_ms":            ms(l.build),
		"deg.path_ms":             ms(l.path),
		"deg.attr_ms":             ms(l.attr),
		"deg.merge_ms":            ms(l.merge),
		"deg.edges":               float64(l.edges),
		"deg.path_over_sim":       ratio(ms(l.path), ms(l.runDEG)),
		"deg.windowed_ms":         ms(l.windowed),
		"deg.fused_ms":            ms(l.fused),
		"deg.overlap_ratio":       ratio(ms(l.run)+ms(l.windowed), ms(l.fused)),
		"deg.windows":             float64(l.windows),
		"deg.peak_edges":          float64(l.peakEdges),
		"deg.peak_buffered":       float64(l.peakBuffered),
		"dse.eval_ms_p50":         percentile(elapsed, 0.5),
		"dse.eval_ms_p90":         percentile(elapsed, 0.9),
		"dse.eval_n":              float64(len(elapsed)),
		"dse.evals":               float64(evals),
		"dse.probes":              float64(probes),
		"dse.cache_hit_ratio":     ratio(float64(hits), float64(lookups)),
		"dse.stage_trace_s":       st.Trace.Seconds(),
		"dse.stage_sim_s":         st.Sim.Seconds(),
		"dse.stage_power_s":       st.Power.Seconds(),
		"dse.stage_deg_s":         st.DEG.Seconds(),
		"dse.stage_deg_stream_s":  st.DEGStream.Seconds(),
		"dse.worker_util":         ratio(st.Total().Seconds(), tr.wall.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"dse.replay_coverage":     ratio(l.stageWork.Seconds(), st.Total().Seconds()),
		"selfdeg.deg_frac":        frac("deg stage"),
		"selfdeg.sim_frac":        frac("sim stage"),
		"selfdeg.deg_stream_frac": frac("deg_stream stage"),
		"selfdeg.slot_wait_frac":  frac(selfdeg.ClassSlotWait),
		"selfdeg.barrier_frac":    frac(selfdeg.ClassBarrier),
		"selfdeg.decide_frac":     frac("explorer decide", "between batches"),
		"mcpat.eval_ms":           ms(l.mcpat),
		"pareto.hv_ms":            ms(l.hv),
		"persist.save_ms":         ms(l.save),
		"persist.bytes":           float64(l.savedBytes),
		"obs.trace_overhead":      tr.refWall().Seconds()/median(untraced) - 1,
		"obs.journal_events":      float64(len(events)),
	}
	det.PaperRatio = paperPathOverSim
	return tr, m, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
