// Package fault is the failure-injection and failure-classification layer
// that makes campaign robustness testable. It has three parts:
//
//   - a registry of named failure sites — the places in the evaluation
//     pipeline (trace/sim/power/deg) and the persistence layer
//     (persist.write/persist.read) that are allowed to fail;
//   - a schedulable Plan of injections ("fail the 3rd sim hit with a
//     transient error", "kill the campaign at the 10th sim hit"), so tests
//     reproduce exact failure scenarios deterministically;
//   - an error taxonomy (transient / permanent / kill) plus the capped
//     exponential-backoff Retry policy the evaluator applies to transient
//     failures.
//
// Production code never constructs injections; it only classifies errors
// (Classify, IsTransient, IsKill) and consults a possibly-nil *Plan at its
// sites. A nil Plan injects nothing and costs one pointer comparison, so
// the instrumented pipeline is byte-identical to an uninstrumented one
// when no plan is attached.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// The registered failure sites. Site hit counts are deterministic when the
// evaluator runs sequentially (Parallelism = 1); under a parallel fan-out
// the workers race for hit numbers, so schedule-sensitive tests pin
// Parallelism to 1.
const (
	// SiteTrace is trace generation / trace-cache lookup.
	SiteTrace = "trace"
	// SiteSim is the cycle-level out-of-order simulation.
	SiteSim = "sim"
	// SitePower is the McPAT power/area model.
	SitePower = "power"
	// SiteDEG is the dependence-graph bottleneck analysis.
	SiteDEG = "deg"
	// SiteDEGStream is the fused simulate+analyze stage of the streaming
	// sim->DEG pipeline, which every windowed full evaluation runs
	// (Evaluator.DEGWindow > 0); it stands in for both SiteSim and SiteDEG
	// there.
	SiteDEGStream = "deg_stream"
	// SitePersistWrite is a campaign checkpoint/save write.
	SitePersistWrite = "persist.write"
	// SitePersistRead is a campaign checkpoint/resume read.
	SitePersistRead = "persist.read"
)

// Sites returns the registry of valid failure-site names, sorted.
func Sites() []string {
	out := []string{SiteTrace, SiteSim, SitePower, SiteDEG, SiteDEGStream, SitePersistWrite, SitePersistRead}
	sort.Strings(out)
	return out
}

// ValidSite reports whether name is a registered failure site.
func ValidSite(name string) bool {
	for _, s := range Sites() {
		if s == name {
			return true
		}
	}
	return false
}

// Class is the failure taxonomy the retry/degradation machinery acts on.
type Class uint8

const (
	// Transient failures succeed when retried (I/O hiccups, injected
	// flakiness, stage timeouts). The evaluator retries them with capped
	// exponential backoff.
	Transient Class = iota + 1
	// Permanent failures never succeed on retry (deterministic simulator
	// errors, poisoned configurations). The evaluator either aborts the
	// campaign or — in skip-failures mode — journals the design as skipped
	// and keeps exploring.
	Permanent
	// Kill models the process dying at this point (SIGKILL mid-campaign).
	// It is never retried and never degraded to a skip: it unwinds the
	// whole run, leaving only the last checkpoint behind. Tests use it to
	// schedule reproducible crash points.
	Kill
)

// String names the class for journals and error text.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Error is an injected failure. It records which site fired and which hit
// of that site it was, so journals and tests can name the exact schedule
// point.
type Error struct {
	Site  string
	Hit   int // 1-based hit count of Site when the injection fired
	Class Class
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure at %s (hit %d)", e.Class, e.Site, e.Hit)
}

// TimeoutError is a stage attempt that exceeded the evaluator's stage
// timeout. Timeouts are transient by definition: the attempt is cancelled
// at its next cancellation point and retried.
type TimeoutError struct {
	Site  string
	After time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("fault: %s stage timed out after %v", e.Site, e.After)
}

// Classify maps an error to its failure class. Injected faults and
// timeouts carry their class; every other (real) error is Permanent —
// the simulator is deterministic, so retrying a genuine failure would
// only repeat it.
func Classify(err error) Class {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Class
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		return Transient
	}
	return Permanent
}

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return err != nil && Classify(err) == Transient }

// IsKill reports whether err is a scheduled campaign kill.
func IsKill(err error) bool { return err != nil && Classify(err) == Kill }

// Injection schedules failures at one site: hits Nth through Nth+Count-1
// of the site fail with the given class. Delay, when non-zero, stalls the
// failing attempt before the error fires — modelling a hung stage so
// timeout handling can be exercised deterministically.
type Injection struct {
	Site  string
	Nth   int // 1-based hit index at which the injection starts firing
	Count int // consecutive hits that fail (0 means 1)
	Class Class
	Delay time.Duration
}

func (i Injection) matches(hit int) bool {
	n := i.Count
	if n <= 0 {
		n = 1
	}
	return hit >= i.Nth && hit < i.Nth+n
}

// Plan is a concurrency-safe schedule of injections plus the per-site hit
// counters they fire against. All methods are nil-safe; a nil plan never
// injects.
type Plan struct {
	mu   sync.Mutex
	hits map[string]int
	inj  []Injection
}

// NewPlan validates the injections (registered site, positive Nth, known
// class) and builds a plan over them.
func NewPlan(inj ...Injection) (*Plan, error) {
	for _, i := range inj {
		if !ValidSite(i.Site) {
			return nil, fmt.Errorf("fault: unknown site %q (valid: %s)", i.Site, strings.Join(Sites(), ", "))
		}
		if i.Nth < 1 {
			return nil, fmt.Errorf("fault: injection at %s has non-positive hit index %d", i.Site, i.Nth)
		}
		switch i.Class {
		case Transient, Permanent, Kill:
		default:
			return nil, fmt.Errorf("fault: injection at %s has unknown class %d", i.Site, i.Class)
		}
	}
	return &Plan{hits: make(map[string]int), inj: append([]Injection(nil), inj...)}, nil
}

// MustPlan is NewPlan for tests and literals; it panics on an invalid
// injection.
func MustPlan(inj ...Injection) *Plan {
	p, err := NewPlan(inj...)
	if err != nil {
		panic(err)
	}
	return p
}

// Hit records one arrival at a site and returns the scheduled failure, if
// any. Matching injections first serve their Delay (the hung-stage stall),
// then fail; a ctx that ends first cuts the stall short and Hit returns
// ctx.Err() instead. The hit counts either way, so schedules stay
// deterministic. Safe for concurrent use; nil-safe.
func (p *Plan) Hit(ctx context.Context, site string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.hits[site]++
	hit := p.hits[site]
	var fired *Injection
	for k := range p.inj {
		if p.inj[k].Site == site && p.inj[k].matches(hit) {
			fired = &p.inj[k]
			break
		}
	}
	p.mu.Unlock()
	if fired == nil {
		return nil
	}
	if fired.Delay > 0 {
		stall := time.NewTimer(fired.Delay)
		defer stall.Stop()
		select {
		case <-stall.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return &Error{Site: site, Hit: hit, Class: fired.Class}
}

// Hits returns how many times a site has been reached so far.
func (p *Plan) Hits(site string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits[site]
}

// String describes the schedule (not the live counters).
func (p *Plan) String() string {
	if p == nil {
		return "fault: no plan"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.inj) == 0 {
		return "fault: empty plan"
	}
	var parts []string
	for _, i := range p.inj {
		n := i.Count
		if n <= 0 {
			n = 1
		}
		parts = append(parts, fmt.Sprintf("%s@%s[%d+%d]", i.Class, i.Site, i.Nth, n))
	}
	return "fault: " + strings.Join(parts, " ")
}

// RandomPlan builds a seeded plan of n transient injections over the given
// sites, with hit indices in [1, maxNth] and runs of 1..2 consecutive
// failures. Transient-only plans never change campaign results (retries
// absorb them), which is exactly the property resume-determinism tests
// quantify over.
func RandomPlan(seed int64, sites []string, n, maxNth int) *Plan {
	rng := rand.New(rand.NewSource(seed))
	if len(sites) == 0 {
		sites = []string{SiteTrace, SiteSim, SitePower, SiteDEG}
	}
	if maxNth < 1 {
		maxNth = 1
	}
	inj := make([]Injection, 0, n)
	for k := 0; k < n; k++ {
		inj = append(inj, Injection{
			Site:  sites[rng.Intn(len(sites))],
			Nth:   1 + rng.Intn(maxNth),
			Count: 1 + rng.Intn(2),
			Class: Transient,
		})
	}
	return MustPlan(inj...)
}

// Retry is a capped exponential-backoff policy for transient failures:
// attempt k (1-based) sleeps min(Base·2^(k-1), Cap) before retrying. Max
// is the number of retries after the first attempt; the zero value retries
// nothing, so an unconfigured evaluator fails exactly as it did before
// this policy existed.
type Retry struct {
	Max  int
	Base time.Duration
	Cap  time.Duration
}

// DefaultRetry is the production policy: three retries starting at 10ms,
// capped at 500ms.
var DefaultRetry = Retry{Max: 3, Base: 10 * time.Millisecond, Cap: 500 * time.Millisecond}

// Backoff returns the sleep before retry attempt k (1-based). Attempts
// beyond Max, or a non-positive k, return a negative duration meaning
// "give up".
func (r Retry) Backoff(k int) time.Duration {
	if k < 1 || k > r.Max {
		return -1
	}
	d := r.Base
	for i := 1; i < k; i++ {
		d *= 2
		if r.Cap > 0 && d >= r.Cap {
			return r.Cap
		}
	}
	if r.Cap > 0 && d > r.Cap {
		return r.Cap
	}
	return d
}
