// Package cli holds the small amount of plumbing the repo's binaries
// share: a consistent "tool: message" error-exit convention and the
// telemetry flag set (-journal, -metrics-addr, -progress) that attaches
// an obs.Recorder to whatever the tool runs.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"archexplorer/internal/dse"
	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
	"archexplorer/internal/persist"
)

// tool is the program name prefixed to every error line. Set once by
// Init; defaults to os.Args[0]'s base for tools that skip Init.
var tool = "cli"

// Init records the tool name used in error messages. Call it before
// flag.Parse in every main.
func Init(name string) { tool = name }

// Fatal prints "tool: err" to stderr and exits 1. Use it for runtime
// failures (I/O, simulation errors) — anything that is not a usage
// mistake.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Fatalf is Fatal with formatting.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(1)
}

// Check calls Fatal if err is non-nil. It collapses the dominant
// error-handling pattern in the binaries to one line.
func Check(err error) {
	if err != nil {
		Fatal(err)
	}
}

// Usagef prints "tool: message" to stderr and exits 2 — the
// conventional exit code for bad invocations (unknown flag values,
// missing arguments).
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(2)
}

// Telemetry is the shared observability flag set. All three flags
// default off; with all of them off Start returns a nil recorder, and a
// nil *obs.Recorder is inert by contract, so the instrumented code path
// behaves byte-identically to an unwired binary.
type Telemetry struct {
	// Journal is the run-journal JSONL path (-journal).
	Journal string
	// MetricsAddr is the listen address for /metrics, /debug/pprof,
	// /debug/vars and the live dashboard at /dash (-metrics-addr), e.g.
	// "localhost:9090".
	MetricsAddr string
	// Progress is the interval between live summary lines on stderr
	// (-progress), 0 to disable.
	Progress time.Duration
}

// AddTelemetryFlags registers the shared flags on fs (pass flag.CommandLine
// from a main).
func (t *Telemetry) AddTelemetryFlags(fs *flag.FlagSet) {
	fs.StringVar(&t.Journal, "journal", "", "write a JSONL run journal to this file (read it back with obsreport)")
	fs.StringVar(&t.MetricsAddr, "metrics-addr", "", "serve Prometheus /metrics, /debug/pprof, /debug/vars and the live campaign dashboard at /dash on this address")
	fs.DurationVar(&t.Progress, "progress", 0, "print a live telemetry summary line at this interval (e.g. 5s); 0 disables")
}

// Start builds the recorder the flags ask for. With every flag off it
// returns (nil, no-op cleanup, nil): downstream code hands the nil
// recorder to evaluators and explorers and pays only nil checks. The
// cleanup closes the journal and stops the progress ticker; call it
// before reading the journal back.
func (t *Telemetry) Start() (*obs.Recorder, func(), error) {
	if t.Journal == "" && t.MetricsAddr == "" && t.Progress == 0 {
		return nil, func() {}, nil
	}
	rec := obs.New()
	if t.Journal != "" {
		if err := rec.OpenJournal(t.Journal); err != nil {
			return nil, func() {}, err
		}
	}
	if t.MetricsAddr != "" {
		addr, err := rec.Serve(t.MetricsAddr)
		if err != nil {
			rec.Close()
			return nil, func() {}, err
		}
		fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics (pprof on /debug/pprof/, live dashboard on /dash)\n", tool, addr)
	}
	if t.Progress > 0 {
		rec.StartProgress(os.Stderr, t.Progress)
	}
	return rec, func() { rec.Close() }, nil
}

// Checkpoint is the shared crash-safety flag set: where to snapshot the
// campaign, how often, and whether to resume a previous run's snapshot.
type Checkpoint struct {
	// Path is the checkpoint file (-checkpoint); empty disables snapshots.
	Path string
	// Every is the minimum interval between snapshots (-checkpoint-every);
	// 0 snapshots after every committed evaluation batch.
	Every time.Duration
	// Resume restores the evaluator from Path before exploring (-resume).
	Resume bool
}

// AddCheckpointFlags registers the checkpoint flags on fs.
func (c *Checkpoint) AddCheckpointFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Path, "checkpoint", "", "snapshot the campaign to this file after evaluation batches (atomic rename)")
	fs.DurationVar(&c.Every, "checkpoint-every", 30*time.Second, "minimum interval between checkpoint snapshots; 0 snapshots every batch")
	fs.BoolVar(&c.Resume, "resume", false, "resume the campaign from -checkpoint if the file exists (replays completed evaluations)")
}

// Wire attaches checkpoint/resume behaviour to the evaluator under the
// campaign identity (method, suite, budget, seed) the snapshot is keyed by.
// Call it after the resilience flags were applied and before the explorer
// runs. With -resume and no existing file the run simply starts fresh.
func (c *Checkpoint) Wire(ev *dse.Evaluator, method, suite string, budget int, seed int64, rec *obs.Recorder) error {
	if c.Resume && c.Path == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	return persist.AttachCheckpoint(ev, persist.CheckpointOptions{
		Path: c.Path, Every: c.Every, Resume: c.Resume,
		Method: method, Suite: suite, Budget: budget, Seed: seed,
		Faults: ev.Faults, Retry: ev.Retry, Obs: rec,
	})
}

// DEG is the shared bottleneck-analysis flag set: one knob, the windowed
// analyzer's window size. It defaults to 0, which keeps the whole-trace
// analyzer — byte-identical to an unwired binary.
type DEG struct {
	// Window is the instructions per analysis window (-deg-window); 0
	// analyzes the whole trace in one pass. A windowed full evaluation
	// streams the simulator's records straight into the analyzer, and
	// every window's context margin is derived from the evaluated
	// config's ROB (deg.RequiredOverlap).
	Window int
}

// AddDEGFlags registers -deg-window on fs. A negative window fails the
// parse, so the binaries exit 2 instead of analyzing the whole trace.
func (d *DEG) AddDEGFlags(fs *flag.FlagSet) {
	fs.Func("deg-window", "run bottleneck analysis in windows of `n` instructions; full evaluations stream the simulator into it in O(window) memory; 0 analyzes the whole trace", func(s string) error {
		v, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("window %d is negative; use 0 for whole-trace analysis", v)
		}
		d.Window = int(v)
		return nil
	})
}

// Apply installs the window on the evaluator.
func (d *DEG) Apply(ev *dse.Evaluator) {
	ev.DEGWindow = d.Window
}

// Resilience is the shared fault-tolerance flag set: the retry policy for
// transient evaluation failures, the per-stage timeout, and whether
// permanent failures abort the campaign or degrade to journaled skips.
type Resilience struct {
	Retries      int
	RetryBase    time.Duration
	RetryCap     time.Duration
	StageTimeout time.Duration
	SkipFailures bool
}

// AddResilienceFlags registers the resilience flags on fs.
func (r *Resilience) AddResilienceFlags(fs *flag.FlagSet) {
	fs.IntVar(&r.Retries, "retries", fault.DefaultRetry.Max, "retries per evaluation stage for transient failures; 0 disables retrying")
	fs.DurationVar(&r.RetryBase, "retry-base", fault.DefaultRetry.Base, "first retry backoff (doubles per attempt)")
	fs.DurationVar(&r.RetryCap, "retry-cap", fault.DefaultRetry.Cap, "upper bound on the retry backoff")
	fs.DurationVar(&r.StageTimeout, "stage-timeout", 0, "cancel an evaluation stage attempt at its next cancellation point after this long, and retry it; 0 disables")
	fs.BoolVar(&r.SkipFailures, "skip-failures", false, "degrade permanently failed evaluations to journaled skips instead of aborting")
}

// Apply installs the policy on the evaluator.
func (r *Resilience) Apply(ev *dse.Evaluator) {
	ev.Retry = fault.Retry{Max: r.Retries, Base: r.RetryBase, Cap: r.RetryCap}
	ev.StageTimeout = r.StageTimeout
	ev.SkipFailures = r.SkipFailures
}
