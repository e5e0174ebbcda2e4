package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentMetrics hammers one counter, gauge, and histogram from many
// goroutines; run under -race this is the recorder's thread-safety gate.
func TestConcurrentMetrics(t *testing.T) {
	r := New()
	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter(MetricEvaluations)
			g := r.Gauge(MetricBudgetSpent)
			h := r.Histogram(MetricStageSim)
			for i := 0; i < n; i++ {
				c.Inc()
				g.Add(0.5)
				h.Observe(float64(i%10) / 1000)
			}
		}()
	}
	wg.Wait()

	if got := r.Counter(MetricEvaluations).Value(); got != workers*n {
		t.Fatalf("counter = %d, want %d", got, workers*n)
	}
	if got := r.Gauge(MetricBudgetSpent).Value(); got != workers*n*0.5 {
		t.Fatalf("gauge = %v, want %v", got, workers*n*0.5)
	}
	_, _, count := r.Histogram(MetricStageSim).Snapshot()
	if count != workers*n {
		t.Fatalf("histogram count = %d, want %d", count, workers*n)
	}
}

// TestJournalRoundTrip emits every event type into a buffer, closes, and
// parses it back: seq must be dense and in order, types preserved.
func TestJournalRoundTrip(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetJournalWriter(&buf)
	if !r.JournalEnabled() {
		t.Fatal("journal not enabled after SetJournalWriter")
	}

	r.Emit(&RunStart{Tool: "test", Method: "ArchExplorer", Suite: "SPEC06", Budget: 10})
	r.Emit(&EvalSpan{Span: r.NextSpan(), Point: []int{1, 2}, Probe: true, SimsAt: 1.5, Perf: 0.9})
	r.Emit(&IterEvent{Explorer: "ArchExplorer", Walk: 1, Step: 2, Sims: 3,
		Top: []ResContrib{{Res: "ROB", Contrib: 0.4}}, Grown: []string{"ROB"}})
	r.Emit(&GridProgress{Variant: 1, Seed: 2, Done: 3, Total: 9})
	r.Emit(&RunEnd{Tool: "test", Sims: 3, Metrics: map[string]float64{"x": 1}})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []string{"run_start", "eval", "iter", "grid", "run_end"}
	if len(events) != len(wantKinds) {
		t.Fatalf("parsed %d events, want %d", len(events), len(wantKinds))
	}
	for i, e := range events {
		if e.Kind() != wantKinds[i] {
			t.Fatalf("event %d kind %q, want %q", i, e.Kind(), wantKinds[i])
		}
		if e.head().Seq != int64(i) {
			t.Fatalf("event %d seq %d", i, e.head().Seq)
		}
	}
	ev := events[1].(*EvalSpan)
	if ev.Span != 1 || !ev.Probe || ev.SimsAt != 1.5 {
		t.Fatalf("eval span fields lost: %+v", ev)
	}
	it := events[2].(*IterEvent)
	if len(it.Top) != 1 || it.Top[0].Res != "ROB" {
		t.Fatalf("iter top lost: %+v", it)
	}
}

// TestJournalFlushOnClose writes through a real file and checks nothing is
// lost between the bufio layer and disk.
func TestJournalFlushOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	r := New()
	if err := r.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		r.Emit(&EvalSpan{Span: r.NextSpan(), SimsAt: float64(i)})
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("journal holds %d events, want %d", len(events), n)
	}
	last := events[n-1].(*EvalSpan)
	if last.SimsAt != n-1 || last.Span != n {
		t.Fatalf("last event corrupted: %+v", last)
	}
	// Double close is safe.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentEmit drives Emit from many goroutines: every line must
// still be valid JSON with a unique seq (ordering across goroutines is not
// asserted — that is the caller's phase discipline, not the journal's).
func TestConcurrentEmit(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetJournalWriter(&buf)
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(&IterEvent{Explorer: "x", Sims: float64(i)})
			}
		}()
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*per {
		t.Fatalf("%d events, want %d", len(events), workers*per)
	}
	seen := make(map[int64]bool)
	for _, e := range events {
		if seen[e.head().Seq] {
			t.Fatalf("duplicate seq %d", e.head().Seq)
		}
		seen[e.head().Seq] = true
	}
}

// TestWritePrometheus checks the text exposition shape for all three
// metric kinds.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(1.5)
	h := r.Registry().Histogram("h_seconds")
	h.Observe(0.0002)
	h.Observe(42)

	var buf bytes.Buffer
	if err := r.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE c_total counter\nc_total 3\n",
		"# TYPE g gauge\ng 1.5\n",
		"# TYPE h_seconds histogram\n",
		`h_seconds_bucket{le="0.00025"} 1`,
		`h_seconds_bucket{le="+Inf"} 2`,
		"h_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestServe spins the metrics endpoint up on an ephemeral port and scrapes
// it once.
func TestServe(t *testing.T) {
	r := New()
	r.Counter(MetricEvaluations).Add(7)
	addr, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer r.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), MetricEvaluations+" 7") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	if _, err := r.Serve("127.0.0.1:0"); err == nil {
		t.Fatal("second Serve did not fail")
	}
}

// TestStartProgress checks the periodic progress line fires and stops.
func TestStartProgress(t *testing.T) {
	r := New()
	r.Counter(MetricEvaluations).Add(2)
	pr, pw := io.Pipe()
	r.StartProgress(pw, time.Millisecond)
	line := make(chan string, 1)
	go func() {
		b := make([]byte, 256)
		n, _ := pr.Read(b)
		line <- string(b[:n])
	}()
	select {
	case got := <-line:
		if !strings.Contains(got, "evals=2") {
			t.Fatalf("progress line %q missing evals", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no progress line within 5s")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
}

// TestNilRecorder: the disabled-telemetry contract — every operation on a
// nil recorder (and the nil metrics it hands out) is a safe no-op.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Emit(&RunEnd{})
	if r.JournalEnabled() {
		t.Fatal("nil recorder claims a journal")
	}
	if r.NextSpan() != 0 {
		t.Fatal("nil recorder allocated a span")
	}
	r.StartProgress(io.Discard, time.Second)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if s := r.Registry().Summary(); s != "" {
		t.Fatalf("nil registry summary %q", s)
	}
	if err := r.Registry().WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if r.Registry().Snapshot() != nil {
		t.Fatal("nil registry snapshot non-nil")
	}
}

// TestSummary spot-checks the live one-liner's cache arithmetic.
func TestSummary(t *testing.T) {
	r := New()
	r.Counter(MetricCacheHits).Add(3)
	r.Counter(MetricCacheMisses).Add(1)
	s := r.Registry().Summary()
	if !strings.Contains(s, "cache=3/4 (75% hit)") {
		t.Fatalf("summary %q", s)
	}
}

// TestReadJournalUnknown: forward compatibility — unknown event types are
// preserved, bad JSON is an error naming the line.
func TestReadJournalUnknown(t *testing.T) {
	in := strings.NewReader(`{"t":"future_thing","seq":0}` + "\n" + `{"t":"run_end","seq":1,"tool":"x"}` + "\n")
	events, err := ReadJournal(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind() != "future_thing" {
		t.Fatalf("unknown event mishandled: %v", events)
	}
	if _, err := ReadJournal(strings.NewReader("{nope\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestOpenJournalErrors covers the unopenable-path and double-open errors.
func TestOpenJournalErrors(t *testing.T) {
	r := New()
	if err := r.OpenJournal(filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")); err == nil {
		t.Fatal("unopenable journal path accepted")
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := r.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	if err := r.OpenJournal(path); err == nil {
		t.Fatal("double OpenJournal accepted")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}
	if _, err := LoadJournal(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("loading an absent journal succeeded")
	}
}

func ExampleRegistry_Summary() {
	r := New()
	r.Counter(MetricEvaluations).Add(4)
	r.Gauge(MetricBudgetSpent).Set(12)
	fmt.Println(r.Registry().Summary())
	// Output: evals=4 probes=0 sims=12.0 hv=0.0000 in-flight=0 cache=0/0 (0% hit) iters=0
}
