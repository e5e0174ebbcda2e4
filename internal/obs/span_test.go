package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestSpanEventRoundTrip: span events survive the journal with every field
// intact and parse back as *SpanEvent, not Unknown.
func TestSpanEventRoundTrip(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetJournalWriter(&buf)
	r.Emit(&SpanEvent{
		Span: 3, Parent: 1, SpanKind: SpanStage, Name: "sim", Workload: "mcf",
		Worker: 2, StartNS: 100, DurNS: 50,
	})
	r.Emit(&SpanEvent{
		Span: 4, SpanKind: SpanBatch, Name: "evaluate", Hits: 2,
		Point: []int{1, 2}, Cache: "replay", StartNS: 10, DurNS: 400,
	})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
	s := events[0].(*SpanEvent)
	if s.Kind() != "span" || s.Span != 3 || s.Parent != 1 || s.SpanKind != SpanStage ||
		s.Name != "sim" || s.Workload != "mcf" || s.Worker != 2 || s.StartNS != 100 || s.DurNS != 50 {
		t.Fatalf("span fields lost: %+v", s)
	}
	if s.End() != 150 {
		t.Fatalf("End() = %d, want 150", s.End())
	}
	b := events[1].(*SpanEvent)
	if b.SpanKind != SpanBatch || b.Hits != 2 || b.Cache != "replay" || len(b.Point) != 2 {
		t.Fatalf("batch span fields lost: %+v", b)
	}
}

// TestUnknownByteIdenticalRoundTrip is the forward-compatibility contract
// the journal versioning rule promises: an event kind this build does not
// know — payload fields included — reads into Unknown and re-marshals
// byte-identically, so a journal filter built against an old schema never
// strips data written by a newer one.
func TestUnknownByteIdenticalRoundTrip(t *testing.T) {
	lines := []string{
		`{"t":"future_thing","seq":0,"nested":{"a":[1,2,3]},"note":"keep me"}`,
		`{"t":"span2","seq":1,"span":9,"extra_ns":123}`,
	}
	events, err := ReadJournal(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(lines) {
		t.Fatalf("parsed %d events, want %d", len(events), len(lines))
	}
	for i, e := range events {
		u, ok := e.(*Unknown)
		if !ok {
			t.Fatalf("event %d parsed as %T, want *Unknown", i, e)
		}
		out, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != lines[i] {
			t.Fatalf("unknown event %d not byte-identical:\n got %s\nwant %s", i, out, lines[i])
		}
	}
	// An Unknown built without raw bytes still marshals its head.
	out, err := json.Marshal(&Unknown{Head: Head{T: "x", Seq: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"t":"x","seq":7}` {
		t.Fatalf("bare unknown marshals as %s", out)
	}
}

// TestQuantile checks the histogram quantile estimator: interpolation
// within a bucket, the +Inf clamp, and the degenerate inputs.
func TestQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// 4 observations in [0,1), 4 in [2,4).
	for i := 0; i < 4; i++ {
		h.Observe(0.5)
		h.Observe(3)
	}
	if got := h.Quantile(0.5); got != 1 {
		// p50 sits exactly at the [0,1) bucket's upper bound.
		t.Fatalf("p50 = %v, want 1", got)
	}
	if got := h.Quantile(0.25); got != 0.5 {
		// Halfway into the first bucket, interpolated from 0.
		t.Fatalf("p25 = %v, want 0.5", got)
	}
	if got := h.Quantile(0.75); got != 3 {
		// Halfway into the [2,4) bucket.
		t.Fatalf("p75 = %v, want 3", got)
	}
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatalf("p clamp low: %v != %v", got, h.Quantile(0))
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Fatalf("p clamp high: %v != %v", got, h.Quantile(1))
	}

	// Observations beyond the last finite bound land in +Inf; the
	// estimate clamps to the largest finite bound rather than inventing
	// an infinite latency.
	inf := NewHistogram([]float64{1, 2, 4})
	inf.Observe(100)
	if got := inf.Quantile(0.99); got != 4 {
		t.Fatalf("+Inf bucket p99 = %v, want clamp to 4", got)
	}

	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}
	empty := NewHistogram(nil)
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	if math.IsNaN(h.Quantile(0.999)) {
		t.Fatal("quantile produced NaN")
	}
}

// TestQuantileConcurrent reads quantiles and summaries while writers
// hammer the registry — the race gate for the dashboard's read paths.
func TestQuantileConcurrent(t *testing.T) {
	r := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := r.Histogram(MetricStageSim)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(float64((i+seed)%100) / 1000)
				r.Counter(MetricEvaluations).Inc()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		if q := r.Histogram(MetricStageSim).Quantile(0.9); q < 0 {
			t.Errorf("negative quantile %v", q)
			break
		}
		_ = r.Registry().Summary()
		_ = r.Registry().HistogramNames()
	}
	close(stop)
	wg.Wait()
}

// TestHistogramNames: sorted, and nil-safe.
func TestHistogramNames(t *testing.T) {
	r := New()
	r.Histogram("z_seconds").Observe(1)
	r.Histogram("a_seconds").Observe(1)
	got := r.Registry().HistogramNames()
	if len(got) != 2 || got[0] != "a_seconds" || got[1] != "z_seconds" {
		t.Fatalf("HistogramNames = %v", got)
	}
	var nilReg *Registry
	if names := nilReg.HistogramNames(); names != nil {
		t.Fatalf("nil registry names = %v", names)
	}
}

// TestNilRecorderSpanAPIs extends the disabled-telemetry contract to every
// span-layer entry point: all of them must be safe no-ops on nil.
func TestNilRecorderSpanAPIs(t *testing.T) {
	var r *Recorder
	if r.Clock() != 0 {
		t.Fatal("nil recorder has a clock")
	}
	if r.SpansActive() {
		t.Fatal("nil recorder claims active spans")
	}
	done := r.TrackSpan(SpanStage, "sim", "mcf", 1)
	done() // must not panic
	if got := r.InFlight(); got != nil {
		t.Fatalf("nil recorder in-flight = %v", got)
	}
	id, end := r.CampaignSpan("x")
	if id != 0 {
		t.Fatalf("nil recorder campaign span id = %d", id)
	}
	end() // must not panic
	r.EnableLiveSpans()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignSpanEmission: with a journal the campaign span is emitted at
// end() with the id handed out up front; without one the API stays silent
// and allocates nothing.
func TestCampaignSpanEmission(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetJournalWriter(&buf)
	id, end := r.CampaignSpan("testcamp")
	if id == 0 {
		t.Fatal("campaign span id not allocated with a journal attached")
	}
	end()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("journal holds %d events, want 1", len(events))
	}
	s := events[0].(*SpanEvent)
	if s.Span != id || s.SpanKind != SpanCampaign || s.Name != "testcamp" || s.Parent != 0 {
		t.Fatalf("campaign span = %+v", s)
	}
	if s.DurNS < 0 {
		t.Fatalf("negative campaign duration %d", s.DurNS)
	}

	bare := New()
	if id, end := bare.CampaignSpan("x"); id != 0 {
		t.Fatalf("campaign span id %d without a journal", id)
	} else {
		end()
	}
	if bare.NextSpan() != 1 {
		t.Fatal("journal-less CampaignSpan consumed a span id")
	}
	bare.Close()
}

// TestTrackSpanInFlight: live tracking is off until EnableLiveSpans, then
// records and drops spans as they begin and end, ordered by start time.
func TestTrackSpanInFlight(t *testing.T) {
	r := New()
	defer r.Close()
	done := r.TrackSpan(SpanStage, "sim", "mcf", 1)
	if got := r.InFlight(); len(got) != 0 {
		t.Fatalf("tracking before EnableLiveSpans: %v", got)
	}
	done()

	r.EnableLiveSpans()
	if !r.SpansActive() {
		t.Fatal("SpansActive false after EnableLiveSpans")
	}
	d1 := r.TrackSpan(SpanStage, "sim", "mcf", 1)
	d2 := r.TrackSpan(SpanStage, "power", "gcc", 2)
	live := r.InFlight()
	if len(live) != 2 {
		t.Fatalf("in-flight = %d spans, want 2", len(live))
	}
	if live[0].StartNS > live[1].StartNS {
		t.Fatal("in-flight spans not ordered by start")
	}
	d1()
	if live := r.InFlight(); len(live) != 1 || live[0].Name != "power" {
		t.Fatalf("after ending one span: %+v", live)
	}
	d2()
	if live := r.InFlight(); len(live) != 0 {
		t.Fatalf("spans leaked: %+v", live)
	}
}

// TestDashEndpoints scrapes /dash and /dash/data off an ephemeral server:
// the page serves HTML, the data endpoint serves a JSON snapshot carrying
// metrics and in-flight spans, and hitting either lazily enables live
// tracking and the runtime self-profile gauges.
func TestDashEndpoints(t *testing.T) {
	r := New()
	r.Counter(MetricEvaluations).Add(5)
	r.Histogram(MetricStageSim).Observe(0.25)
	addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer r.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	page := get("/dash")
	if !bytes.Contains(page, []byte("<html")) || !bytes.Contains(page, []byte("dash/data")) {
		t.Fatalf("dashboard page unexpected:\n%.200s", page)
	}
	if !r.SpansActive() {
		t.Fatal("dashboard hit did not enable live span tracking")
	}

	done := r.TrackSpan(SpanEval, "cfg", "", 1)
	var snap struct {
		UptimeNS int64              `json:"uptime_ns"`
		Metrics  map[string]float64 `json:"metrics"`
		InFlight []struct {
			Name string `json:"name"`
		} `json:"in_flight"`
		Histograms []struct {
			Name string  `json:"name"`
			P99  float64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(get("/dash/data"), &snap); err != nil {
		t.Fatal(err)
	}
	done()
	if snap.UptimeNS <= 0 {
		t.Fatalf("uptime %d", snap.UptimeNS)
	}
	if snap.Metrics[MetricEvaluations] != 5 {
		t.Fatalf("snapshot metrics = %v", snap.Metrics)
	}
	if snap.Metrics[MetricRuntimeGoroutines] <= 0 {
		t.Fatal("runtime self-profile gauges not sampled")
	}
	if len(snap.InFlight) != 1 || snap.InFlight[0].Name != "cfg" {
		t.Fatalf("in-flight = %+v", snap.InFlight)
	}
	found := false
	for _, h := range snap.Histograms {
		if h.Name == MetricStageSim && h.P99 > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("histograms missing %s: %+v", MetricStageSim, snap.Histograms)
	}

	// The runtime gauges also reach the Prometheus exposition.
	if !bytes.Contains(get("/metrics"), []byte(MetricRuntimeHeap)) {
		t.Fatal("/metrics missing runtime gauges")
	}
}
