package persist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"archexplorer/internal/dse"
	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
)

// CheckpointOptions wires crash-safe snapshots and replay-based resume onto
// an evaluator. Method/Suite/Budget/Seed identify the campaign; a resume
// refuses a checkpoint whose identity or reproducibility knobs disagree,
// since replaying someone else's results would silently corrupt the run.
type CheckpointOptions struct {
	// Path is the checkpoint file. Empty disables checkpointing entirely.
	Path string
	// Every throttles snapshots: at most one per interval, except that the
	// first commit after attach always snapshots. 0 snapshots after every
	// committed batch (the test setting; real campaigns throttle).
	Every time.Duration
	// Resume loads Path (when it exists) and primes the evaluator to
	// replay it. A missing file is not an error — the run starts fresh.
	Resume bool

	Method string
	Suite  string
	Budget int
	Seed   int64

	// Faults lets the persistence I/O itself be exercised by the fault
	// plan (sites persist.read / persist.write); nil injects nothing.
	Faults *fault.Plan
	// Retry is the backoff policy for transient persistence faults.
	Retry fault.Retry
	// Obs receives checkpoint/resume journal events and counters.
	Obs *obs.Recorder
}

// AttachCheckpoint optionally restores the evaluator from opts.Path and
// installs its Checkpoint hook. It must run before the explorer starts.
func AttachCheckpoint(ev *dse.Evaluator, opts CheckpointOptions) error {
	if opts.Path == "" {
		return nil
	}
	if opts.Resume {
		if err := resumeFrom(ev, opts); err != nil {
			return err
		}
	}
	var last time.Time
	ev.Checkpoint = func() {
		if !last.IsZero() && opts.Every > 0 && time.Since(last) < opts.Every {
			return
		}
		last = time.Now()
		c := FromEvaluator(opts.Method, opts.Suite, opts.Budget, ev)
		c.Seed = opts.Seed
		if err := saveWithFaults(&c, opts); err != nil {
			// A failed snapshot must not kill the campaign: the previous
			// checkpoint file is still intact (Save is atomic), so the run
			// just loses some resumable progress. Journal the miss.
			opts.Obs.Emit(&obs.FaultEvent{
				Site: fault.SitePersistWrite, Action: "checkpoint-failed",
				Err: err.Error(),
			})
			return
		}
		opts.Obs.Counter(obs.MetricCheckpoints).Inc()
		opts.Obs.Emit(&obs.CheckpointEvent{
			Path: opts.Path, Designs: len(c.Designs), Sims: c.SimsSpent,
		})
	}
	return nil
}

// saveWithFaults writes the snapshot under the fault plan's persist.write
// site, retrying transient injections like any other stage.
func saveWithFaults(c *Campaign, opts CheckpointOptions) error {
	for attempt := 1; ; attempt++ {
		err := opts.Faults.Hit(context.Background(), fault.SitePersistWrite)
		if err == nil {
			err = c.Save(opts.Path)
		}
		if err == nil {
			return nil
		}
		if !fault.IsTransient(err) {
			return err
		}
		backoff := opts.Retry.Backoff(attempt)
		if backoff < 0 {
			return err
		}
		opts.Obs.Counter(obs.MetricRetries).Inc()
		time.Sleep(backoff)
	}
}

// resumeFrom loads the checkpoint and primes the evaluator's replay store.
func resumeFrom(ev *dse.Evaluator, opts CheckpointOptions) error {
	var c *Campaign
	for attempt := 1; ; attempt++ {
		err := opts.Faults.Hit(context.Background(), fault.SitePersistRead)
		if err == nil {
			c, err = Load(opts.Path)
		}
		if err == nil {
			break
		}
		if errors.Is(err, os.ErrNotExist) {
			return nil // no checkpoint yet: a fresh run, not an error
		}
		if !fault.IsTransient(err) {
			return fmt.Errorf("persist: resume from %s: %w", opts.Path, err)
		}
		backoff := opts.Retry.Backoff(attempt)
		if backoff < 0 {
			return fmt.Errorf("persist: resume from %s: %w", opts.Path, err)
		}
		opts.Obs.Counter(obs.MetricRetries).Inc()
		time.Sleep(backoff)
	}
	if err := checkCompatible(c, opts, ev); err != nil {
		return err
	}
	skipped, err := RestoreInto(ev, c)
	if err != nil {
		return fmt.Errorf("persist: resume from %s: %w", opts.Path, err)
	}
	opts.Obs.Emit(&obs.ResumeEvent{
		Path: opts.Path, Designs: len(c.Designs), Skipped: skipped,
		Sims: c.SimsSpent,
	})
	return nil
}

// checkCompatible refuses checkpoints whose campaign identity or
// reproducibility knobs differ from the resuming run's.
func checkCompatible(c *Campaign, opts CheckpointOptions, ev *dse.Evaluator) error {
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("persist: checkpoint %s was written by a different campaign: %s %v, resuming run has %v",
			opts.Path, field, got, want)
	}
	switch {
	case opts.Method != "" && c.Method != opts.Method:
		return mismatch("method", c.Method, opts.Method)
	case opts.Suite != "" && c.Suite != opts.Suite:
		return mismatch("suite", c.Suite, opts.Suite)
	case c.Budget != opts.Budget:
		return mismatch("budget", c.Budget, opts.Budget)
	case c.Seed != opts.Seed:
		return mismatch("seed", c.Seed, opts.Seed)
	case c.TraceLen != 0 && c.TraceLen != ev.TraceLen:
		return mismatch("trace_len", c.TraceLen, ev.TraceLen)
	}
	return nil
}

// RestoreInto validates a loaded campaign and primes the evaluator to
// replay it (see dse's replay-based resume). Returns how many designs in
// the checkpoint were failed skips. The evaluator must be fresh.
func RestoreInto(ev *dse.Evaluator, c *Campaign) (skipped int, err error) {
	if err := ValidateCampaign(c); err != nil {
		return 0, err
	}
	results := make([]dse.RestoredResult, 0, len(c.Designs))
	for i := range c.Designs {
		d := &c.Designs[i]
		r := dse.RestoredResult{
			Probe:      d.Probe,
			Failed:     d.Failed,
			FailSite:   d.FailSite,
			FailReason: d.FailReason,
		}
		r.PPA.Perf, r.PPA.Power, r.PPA.Area = d.Perf, d.PowerW, d.AreaMM2
		r.PerWorkloadIPC = append([]float64(nil), d.PerWorkloadIPC...)
		if len(d.Point) == len(r.Point) {
			for k, v := range d.Point {
				r.Point[k] = v
			}
		} else {
			// Pre-resume files carry no point; re-encode the config.
			pt, err := ev.Space.Encode(d.Config)
			if err != nil {
				return 0, fmt.Errorf("design %d: %w", i, err)
			}
			r.Point = pt
		}
		if d.Report != nil {
			rep, err := d.Report.ToReport()
			if err != nil {
				return 0, fmt.Errorf("design %d: %w", i, err)
			}
			r.Report = rep
		}
		if d.Times != nil {
			r.Times = d.Times.ToStageTimes()
		}
		if d.Failed {
			skipped++
		}
		results = append(results, r)
	}
	return skipped, ev.Restore(results)
}
