// Package obs is the run-telemetry layer of the reproduction: low-overhead
// concurrency-safe metrics (counters, gauges, histograms), structured
// span/event recording into a JSONL run-journal, and two live sinks — a
// Prometheus-style text exposition served next to net/http/pprof and
// expvar, and a periodic one-line progress printer.
//
// Everything is nil-safe: a nil *Recorder (telemetry disabled) makes every
// operation a no-op, so instrumented code paths carry no conditionals and
// produce byte-identical results with telemetry off. The journal is the
// only ordered sink; instrumented code must emit journal events from a
// deterministic phase (the DSE evaluator emits from its commit phase, never
// from workers), so a run's event sequence is reproducible even though the
// durations inside the events are not.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Canonical metric names shared by the instrumented packages and the
// progress/exposition sinks. Keeping them here means the dse evaluator, the
// experiment harness, and Registry.Summary all agree on what a metric is
// called without importing one another.
const (
	MetricEvaluations   = "archx_evaluations_total"    // full-fidelity evaluations committed
	MetricProbes        = "archx_probes_total"         // probe evaluations committed
	MetricCacheHits     = "archx_cache_hits_total"     // batch slots resolved from cache
	MetricCacheMisses   = "archx_cache_misses_total"   // deduplicated jobs actually simulated
	MetricCacheUpgrades = "archx_cache_upgrades_total" // cached entries re-run to add a DEG report
	MetricBudgetSpent   = "archx_budget_spent_sims"    // cumulative simulation budget (gauge)
	MetricSimsInFlight  = "archx_sims_in_flight"       // (config, workload) simulations running now
	MetricIterations    = "archx_explorer_iters_total" // explorer decision steps
	MetricHypervolume   = "archx_hypervolume"          // running Pareto hypervolume (gauge)
	MetricCampaignsDone = "archx_campaigns_done_total" // finished grid cells in an experiment fan-out
	MetricRetries       = "archx_retries_total"        // transient stage failures retried
	MetricTimeouts      = "archx_stage_timeouts_total" // stage attempts cancelled at the timeout
	MetricEvalSkips     = "archx_eval_skips_total"     // permanently failed evaluations degraded to skips
	MetricCheckpoints   = "archx_checkpoints_total"    // campaign snapshots written
	MetricStageTrace    = "archx_stage_trace_seconds"  // histograms: per-stage worker latency
	MetricStageSim      = "archx_stage_sim_seconds"
	MetricStagePower    = "archx_stage_power_seconds"
	MetricStageDEG      = "archx_stage_deg_seconds"
	// MetricStageDEGStream is the fused simulate+analyze stage of the
	// streaming sim->DEG pipeline (replaces the sim and deg histograms on
	// windowed full evaluations, which always stream).
	MetricStageDEGStream = "archx_stage_deg_stream_seconds"
	MetricSimInsts       = "archx_sim_insts_total"   // instructions committed by the cycle-level simulator
	MetricSimInstRate    = "archx_sim_insts_per_sec" // throughput of the most recent simulation (gauge)

	MetricDEGWindows   = "archx_deg_windows"             // windows of the last windowed analysis (gauge)
	MetricDEGPeakEdges = "archx_deg_peak_edges"          // largest single-window edge count (gauge)
	MetricDEGDrops     = "archx_deg_dropped_edges_total" // defensively dropped DEG edges (corruption indicator)
	MetricDEGWorkers   = "archx_deg_workers"             // window-ring width of the last streamed analysis (gauge)
	// Runtime self-profile gauges, sampled whenever /metrics or /dash is
	// scraped, so a stalled campaign can be triaged without attaching
	// pprof.
	MetricRuntimeHeap       = "archx_runtime_heap_alloc_bytes" // live heap at the last sample (gauge)
	MetricRuntimeSys        = "archx_runtime_sys_bytes"        // total memory obtained from the OS (gauge)
	MetricRuntimeGoroutines = "archx_runtime_goroutines"       // goroutine count at the last sample (gauge)
	MetricRuntimeGCPause    = "archx_runtime_gc_pause_last_ns" // most recent GC stop-the-world pause (gauge)
	MetricRuntimeGCTotal    = "archx_runtime_gc_cycles_total"  // completed GC cycles (gauge; cumulative)
)

// Counter is a monotonically increasing int64, safe for concurrent use.
// The zero value is ready; a nil Counter ignores every operation.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move both ways, safe for concurrent use.
// The zero value is ready; a nil Gauge ignores every operation.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (CAS loop; gauges are low-frequency).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefaultLatencyBuckets spans the sub-millisecond-to-seconds range the
// simulator's per-stage latencies live in (upper bounds, in seconds).
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency/size distribution, safe for
// concurrent use. A nil Histogram ignores every operation.
type Histogram struct {
	mu      sync.Mutex
	buckets []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts  []uint64  // len(buckets)+1
	sum     float64
	count   uint64
}

// NewHistogram builds a histogram over the given sorted upper bounds
// (DefaultLatencyBuckets when nil).
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	return &Histogram{buckets: buckets, counts: make([]uint64, len(buckets)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot returns cumulative bucket counts (Prometheus `le` semantics),
// the sample sum, and the sample count.
func (h *Histogram) Snapshot() (cumulative []uint64, sum float64, count uint64) {
	if h == nil {
		return nil, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return cumulative, h.sum, h.count
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) from the bucket counts,
// interpolating linearly inside the bucket the rank lands in. Samples in
// the implicit +Inf bucket are reported as the largest finite bound — the
// usual Prometheus convention — so the estimate is a floor, not an
// overshoot. Returns 0 for a nil or empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || len(h.buckets) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.buckets) { // +Inf bucket: clamp to the largest finite bound
			return h.buckets[len(h.buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.buckets[i-1]
		}
		hi := h.buckets[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return h.buckets[len(h.buckets)-1]
}

// Bounds returns the histogram's upper bounds (shared, do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.buckets
}

// Registry is a get-or-create store of named metrics. The zero value is not
// usable; use NewRegistry. A nil Registry hands out nil metrics, which
// swallow every operation.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the default
// latency buckets on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(nil)
		r.histograms[name] = h
	}
	return h
}

// HistogramNames returns the names of every histogram registered so far,
// sorted — the enumeration the live dashboard walks (Histogram(name) only
// ever hands out one metric at a time, and would create on a miss).
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.histograms)
}

// Snapshot returns every counter and gauge value by name — the flat form
// embedded in the journal's run_end event so a journal is self-contained.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (sorted by name, so output is stable for tests and diffing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		histograms[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range sortedKeys(counters) {
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", name, name, gauges[name].Value())
	}
	for _, name := range sortedKeys(histograms) {
		h := histograms[name]
		cum, sum, count := h.Snapshot()
		fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		for i, bound := range h.Bounds() {
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", bound), cum[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[len(cum)-1])
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", name, sum, name, count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary is the one-line live view the periodic progress sink prints:
// evaluation/probe counts, budget spend, hypervolume, cache behaviour, and
// simulations in flight, drawn from the canonical metric names.
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	hits := r.Counter(MetricCacheHits).Value()
	misses := r.Counter(MetricCacheMisses).Value()
	lookups := hits + misses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = 100 * float64(hits) / float64(lookups)
	}
	return fmt.Sprintf("evals=%d probes=%d sims=%.1f hv=%.4f in-flight=%.0f cache=%d/%d (%.0f%% hit) iters=%d",
		r.Counter(MetricEvaluations).Value(),
		r.Counter(MetricProbes).Value(),
		r.Gauge(MetricBudgetSpent).Value(),
		r.Gauge(MetricHypervolume).Value(),
		r.Gauge(MetricSimsInFlight).Value(),
		hits, lookups, hitRate,
		r.Counter(MetricIterations).Value())
}
