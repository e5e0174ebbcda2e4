package dse

import (
	"context"
	"errors"
	"time"

	"archexplorer/internal/fault"
	"archexplorer/internal/obs"
)

// failSite names the pipeline stage a failed evaluation died at, when the
// error carries one (injected faults and timeouts do; organic simulator
// errors do not).
func failSite(err error) string {
	var fe *fault.Error
	if errors.As(err, &fe) {
		return fe.Site
	}
	var te *fault.TimeoutError
	if errors.As(err, &te) {
		return te.Site
	}
	return ""
}

// stageRunner carries one (config, workload) run's failure handling: it
// consults the evaluator's injected fault plan at each stage site, bounds
// each attempt by the stage timeout, retries transient failures under the
// capped-backoff policy, and collects the fault records that the commit
// phase will journal in deterministic order. Each workload slot owns its
// runner, so records never race across workers.
type stageRunner struct {
	ev       *Evaluator
	workload string
	recs     []obs.FaultEvent
}

// runStage executes one pipeline stage with fault injection, timeout, and
// transient-failure retries. Each attempt runs fn on the calling goroutine
// under a context that ends at the stage timeout; fn stops at its next
// cancellation point, so no attempt outlives runStage and whatever pooled
// storage it holds comes back on its normal return path.
func runStage[T any](sr *stageRunner, site string, fn func(context.Context) (T, error)) (T, error) {
	var zero T
	for attempt := 1; ; attempt++ {
		v, err := attemptStage(sr, site, fn)
		if err == nil {
			return v, nil
		}
		if !fault.IsTransient(err) {
			return zero, err // permanent failures and kills surface immediately
		}
		backoff := sr.ev.Retry.Backoff(attempt)
		if backoff < 0 {
			return zero, err // retries exhausted: the transient failure is terminal
		}
		class := fault.Transient.String()
		if _, ok := err.(*fault.TimeoutError); ok {
			class = "timeout"
		}
		sr.recs = append(sr.recs, obs.FaultEvent{
			Site: site, Class: class, Action: "retry", Attempt: attempt,
			Workload: sr.workload, Err: err.Error(), BackoffNS: backoff.Nanoseconds(),
		})
		sr.ev.Obs.Counter(obs.MetricRetries).Inc()
		if backoff > 0 {
			time.Sleep(backoff)
		}
	}
}

// attemptStage runs one attempt: the injected fault (if scheduled) fires
// first, standing in for the stage crashing; otherwise fn runs. Both see a
// context that ends at the evaluator's stage timeout (none when it is 0).
// An attempt that stops because the deadline passed returns a transient
// TimeoutError; one that finishes after it, with no cancellation point on
// its way, keeps its result.
func attemptStage[T any](sr *stageRunner, site string, fn func(context.Context) (T, error)) (T, error) {
	ctx := context.Background()
	if timeout := sr.ev.StageTimeout; timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	err := sr.ev.Faults.Hit(ctx, site)
	var v T
	if err == nil {
		v, err = fn(ctx)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// The streamed stage wraps its error, hence errors.Is.
		sr.ev.Obs.Counter(obs.MetricTimeouts).Inc()
		var zero T
		return zero, &fault.TimeoutError{Site: site, After: sr.ev.StageTimeout}
	}
	return v, err
}
