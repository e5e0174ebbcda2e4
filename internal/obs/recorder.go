package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the handle instrumented code holds: a metrics registry, an
// optional JSONL journal, and optional live sinks (HTTP exposition,
// periodic progress lines). All methods are safe on a nil receiver, so a
// disabled recorder costs one pointer comparison per call site and changes
// nothing observable.
type Recorder struct {
	reg   *Registry
	start time.Time // Clock()'s epoch (monotonic)

	mu       sync.Mutex
	j        *journal
	srv      *http.Server
	srvAddr  string
	stopProg chan struct{}
	progWG   sync.WaitGroup

	spans atomic.Int64

	spanLive // in-flight span tracking for the dashboard
}

// New returns a recorder with a fresh registry and no sinks attached.
func New() *Recorder {
	return &Recorder{reg: NewRegistry(), start: time.Now()}
}

// Registry returns the recorder's metric registry (nil for a nil recorder;
// a nil registry hands out no-op metrics).
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Counter is shorthand for Registry().Counter.
func (r *Recorder) Counter(name string) *Counter { return r.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge.
func (r *Recorder) Gauge(name string) *Gauge { return r.Registry().Gauge(name) }

// Histogram is shorthand for Registry().Histogram.
func (r *Recorder) Histogram(name string) *Histogram { return r.Registry().Histogram(name) }

// NextSpan returns a fresh span id (1-based). Ids are process-unique per
// recorder; when emission happens from a single deterministic phase they
// are also reproducible run to run.
func (r *Recorder) NextSpan() int64 {
	if r == nil {
		return 0
	}
	return r.spans.Add(1)
}

// OpenJournal attaches a JSONL run-journal writing to path (truncating an
// existing file). The journal is flushed and closed by Close.
func (r *Recorder) OpenJournal(path string) error {
	if r == nil {
		return fmt.Errorf("obs: OpenJournal on a nil recorder")
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: open journal: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.j != nil {
		f.Close()
		return fmt.Errorf("obs: journal already open")
	}
	r.j = newJournal(f, f)
	return nil
}

// SetJournalWriter attaches a caller-owned writer as the journal sink
// (used by tests and embedders); Close flushes but does not close it.
func (r *Recorder) SetJournalWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.j = newJournal(w, nil)
}

// JournalEnabled reports whether Emit will write anywhere. Call sites use
// it to skip building expensive event payloads (e.g. hypervolume
// recomputation) when nobody is listening.
func (r *Recorder) JournalEnabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.j != nil
}

// Emit appends one event to the journal (no-op without one). The event's
// type tag and sequence number are assigned here, under the journal lock,
// so seq order equals physical line order.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	j := r.j
	r.mu.Unlock()
	if j == nil {
		return
	}
	j.emit(e)
}

// Serve starts an HTTP server on addr exposing the Prometheus text
// exposition at /metrics, the live dashboard at /dash, Go's pprof profiles
// under /debug/pprof/, and expvar at /debug/vars. It returns the bound
// address (useful with ":0").
// The server is shut down by Close.
func (r *Recorder) Serve(addr string) (string, error) {
	if r == nil {
		return "", fmt.Errorf("obs: Serve on a nil recorder")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		r.sampleRuntime() // scrape-time sampling, like a prometheus collector
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/dash", r.dashPage)
	mux.HandleFunc("/dash/data", r.dashData)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	r.mu.Lock()
	if r.srv != nil {
		r.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("obs: metrics server already running")
	}
	r.srv = srv
	r.srvAddr = ln.Addr().String()
	r.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// StartProgress prints Registry.Summary to w every interval until Close.
func (r *Recorder) StartProgress(w io.Writer, interval time.Duration) {
	if r == nil || interval <= 0 {
		return
	}
	r.mu.Lock()
	if r.stopProg != nil {
		r.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	r.stopProg = stop
	r.mu.Unlock()

	r.progWG.Add(1)
	go func() {
		defer r.progWG.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(w, "[obs] %s\n", r.reg.Summary())
			}
		}
	}()
}

// Close stops the progress sink, shuts the metrics server down, and
// flushes + closes the journal. It is safe to call more than once.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	stop, srv, j := r.stopProg, r.srv, r.j
	r.stopProg, r.srv, r.j = nil, nil, nil
	r.mu.Unlock()

	if stop != nil {
		close(stop)
	}
	r.progWG.Wait()
	var err error
	if srv != nil {
		err = srv.Close()
	}
	if j != nil {
		if jerr := j.close(); err == nil {
			err = jerr
		}
	}
	return err
}
