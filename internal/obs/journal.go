package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal versioning rule: the schema is append-only. A new need is met by
// a new event kind or a new omitempty field on an existing kind — never by
// renaming, re-typing, or re-purposing a field that has shipped, and a new
// field must be omitted whenever the feature that sets it is off, so
// default-configuration journals stay byte-identical across versions.
// Readers hold up the other half of the contract: ReadJournal maps unknown
// kinds to *Unknown (preserved byte-for-byte, so filters can re-emit them
// losslessly) and json ignores unknown fields, which lets an old obsreport
// binary read a newer journal and a new binary read an old one.
//
// Head is the envelope every journal event carries: its type tag and a
// sequence number assigned in emission order. Emission order is the
// journal's determinism contract — instrumented code only emits from
// deterministic phases, so seq N holds the same event (modulo durations)
// on every run of the same campaign.
type Head struct {
	T   string `json:"t"`
	Seq int64  `json:"seq"`
}

func (h *Head) head() *Head { return h }

// Event is one journal line. Concrete event types embed Head and name
// their type tag via Kind.
type Event interface {
	head() *Head
	Kind() string
}

// RunStart opens a journal: which tool ran what, with which knobs, and the
// hypervolume reference point every later HV number is measured against.
type RunStart struct {
	Head
	Tool        string     `json:"tool"`
	Method      string     `json:"method,omitempty"`
	Suite       string     `json:"suite,omitempty"`
	Budget      int        `json:"budget,omitempty"`
	TraceLen    int        `json:"trace_len,omitempty"`
	Parallelism int        `json:"parallelism,omitempty"`
	HVRef       [3]float64 `json:"hv_ref,omitempty"` // perf, power, area
	Time        string     `json:"time,omitempty"`   // wall-clock, not deterministic
}

// Kind implements Event.
func (*RunStart) Kind() string { return "run_start" }

// EvalSpan is one committed evaluation: the span over its trace/sim/power/
// DEG child stages plus the deterministic outcome fields. Span ids are
// assigned at commit time; an evaluation that re-runs a cached entry to
// attach a DEG report records the span it replaces, so reductions that
// mirror the evaluator's history (stage sums, Pareto sets) drop the
// superseded span.
type EvalSpan struct {
	Head
	Span     int64   `json:"span"`
	Replaces int64   `json:"replaces,omitempty"`
	Point    []int   `json:"point,omitempty"`
	Config   string  `json:"config,omitempty"`
	Probe    bool    `json:"probe,omitempty"`
	SimsAt   float64 `json:"sims_at"`
	Perf     float64 `json:"perf"`
	PowerW   float64 `json:"power_w"`
	AreaMM2  float64 `json:"area_mm2"`
	// Windowed-DEG outcome: total windows and largest single-window graph
	// across the suite, plus defensively dropped DEG edges (a trace-
	// corruption indicator). All omitted on whole-trace runs, keeping
	// journals from default configurations byte-identical to before.
	DEGWindows   int   `json:"deg_windows,omitempty"`
	DEGPeakEdges int   `json:"deg_peak_edges,omitempty"`
	DEGDrops     int64 `json:"deg_drops,omitempty"`
	// SimInsts is the suite-total committed instruction count — with SimNS
	// it yields simulator throughput. Omitted when zero (replayed spans),
	// keeping older journals parseable and golden files unchanged.
	SimInsts int64 `json:"sim_insts,omitempty"`
	// Durations vary run to run; every other field is deterministic.
	TraceNS int64 `json:"trace_ns"`
	SimNS   int64 `json:"sim_ns"`
	PowerNS int64 `json:"power_ns"`
	DEGNS   int64 `json:"deg_ns"`
	// DEGStreamNS is the fused simulate+analyze stage of streamed
	// (windowed full) evaluations, which leaves SimNS and DEGNS zero;
	// omitted on whole-trace and probe runs so their journals are
	// byte-identical to before.
	DEGStreamNS int64 `json:"deg_stream_ns,omitempty"`
	ElapsedNS   int64 `json:"elapsed_ns"`
}

// Kind implements Event.
func (*EvalSpan) Kind() string { return "eval" }

// ResContrib is one resource's share of the critical path in an iteration
// event.
type ResContrib struct {
	Res     string  `json:"res"`
	Contrib float64 `json:"contrib"`
}

// IterEvent is one explorer decision step: the bottleneck report's top
// contributors that drove it, the resize decision taken, and the running
// hypervolume of everything explored so far. Baseline explorers emit the
// same event per phase batch with Phase set and the resize fields empty.
type IterEvent struct {
	Head
	Explorer string       `json:"explorer"`
	Walk     int          `json:"walk,omitempty"`
	Step     int          `json:"step,omitempty"`
	Phase    string       `json:"phase,omitempty"`
	Sims     float64      `json:"sims"`
	HV       float64      `json:"hv"`
	Top      []ResContrib `json:"top,omitempty"`
	Grown    []string     `json:"grown,omitempty"`
	Shrunk   []string     `json:"shrunk,omitempty"`
	Improved bool         `json:"improved,omitempty"`
	BestIPC  float64      `json:"best_ipc,omitempty"`
	Evals    int          `json:"evals,omitempty"`
}

// Kind implements Event.
func (*IterEvent) Kind() string { return "iter" }

// FaultEvent records one fault-handling action: a transient or timed-out
// stage attempt that was retried (action "retry", class "transient" or
// "timeout"), a permanently failed evaluation degraded to a journaled skip
// (action "skip"), or a campaign snapshot that could not be written (action
// "checkpoint-failed"). Retry events are collected worker-side but emitted
// from the evaluator's commit phase in suite order, so the sequence stays
// deterministic for a sequential evaluator.
type FaultEvent struct {
	Head
	Site     string `json:"site"`
	Class    string `json:"class,omitempty"`
	Action   string `json:"action"`
	Attempt  int    `json:"attempt,omitempty"`
	Point    []int  `json:"point,omitempty"`
	Workload string `json:"workload,omitempty"`
	Err      string `json:"err,omitempty"`
	// BackoffNS is the scheduled sleep before the retry — a policy value,
	// not a measurement, so it is deterministic.
	BackoffNS int64 `json:"backoff_ns,omitempty"`
}

// Kind implements Event.
func (*FaultEvent) Kind() string { return "fault" }

// CheckpointEvent marks one atomic campaign snapshot reaching disk.
type CheckpointEvent struct {
	Head
	Path    string  `json:"path,omitempty"`
	Designs int     `json:"designs"`
	Sims    float64 `json:"sims"`
}

// Kind implements Event.
func (*CheckpointEvent) Kind() string { return "checkpoint" }

// ResumeEvent marks a campaign restored from a checkpoint: how much
// explored state came back and will be replayed instead of re-simulated.
type ResumeEvent struct {
	Head
	Path    string  `json:"path,omitempty"`
	Designs int     `json:"designs"`
	Skipped int     `json:"skipped,omitempty"`
	Sims    float64 `json:"sims"`
}

// Kind implements Event.
func (*ResumeEvent) Kind() string { return "resume" }

// GridProgress marks one finished cell of an experiment's campaign grid.
type GridProgress struct {
	Head
	Variant int     `json:"variant"`
	Seed    int64   `json:"seed"`
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	Sims    float64 `json:"sims,omitempty"`
}

// Kind implements Event.
func (*GridProgress) Kind() string { return "grid" }

// RunEnd closes a journal with the final outcome and a full metrics
// snapshot, making the journal self-contained for post-processing.
type RunEnd struct {
	Head
	Tool      string             `json:"tool"`
	Sims      float64            `json:"sims,omitempty"`
	HV        float64            `json:"hv,omitempty"`
	ElapsedNS int64              `json:"elapsed_ns,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// Kind implements Event.
func (*RunEnd) Kind() string { return "run_end" }

// journal is the JSONL sink: one event per line, buffered, flushed on
// Close. Writes are serialised by a mutex; seq is assigned under the same
// mutex so the numbering matches the physical line order.
type journal struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer // nil when wrapping a caller-owned writer
	seq int64
	err error
}

func newJournal(w io.Writer, c io.Closer) *journal {
	return &journal{w: bufio.NewWriter(w), c: c}
}

// emit assigns the next sequence number and writes one line.
func (j *journal) emit(e Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	h := e.head()
	h.T = e.Kind()
	h.Seq = j.seq
	j.seq++
	b, err := json.Marshal(e)
	if err == nil {
		_, err = j.w.Write(append(b, '\n'))
	}
	if err != nil {
		j.err = fmt.Errorf("obs: journal write: %w", err)
		return j.err
	}
	return nil
}

// close flushes the buffer and closes the underlying file, if owned.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.w != nil {
		err = j.w.Flush()
	}
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
		j.c = nil
	}
	j.w = nil
	if err != nil && j.err == nil {
		j.err = err
	}
	return err
}

// ReadJournal parses a JSONL journal into typed events, skipping blank
// lines. Unknown event types are preserved as *Unknown so newer journals
// stay readable by older tools.
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var head struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("obs: journal line %d: %w", line, err)
		}
		var e Event
		switch head.T {
		case "run_start":
			e = &RunStart{}
		case "eval":
			e = &EvalSpan{}
		case "span":
			e = &SpanEvent{}
		case "iter":
			e = &IterEvent{}
		case "grid":
			e = &GridProgress{}
		case "fault":
			e = &FaultEvent{}
		case "checkpoint":
			e = &CheckpointEvent{}
		case "resume":
			e = &ResumeEvent{}
		case "run_end":
			e = &RunEnd{}
		default:
			e = &Unknown{}
		}
		if err := json.Unmarshal(raw, e); err != nil {
			return nil, fmt.Errorf("obs: journal line %d (%s): %w", line, head.T, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: journal read: %w", err)
	}
	return out, nil
}

// LoadJournal reads a journal file.
func LoadJournal(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}

// Unknown is a forward-compatibility event: a journal line whose type this
// build does not know. The original line is preserved byte-for-byte, so a
// tool that reads a journal and writes it back (a filter, a splitter)
// round-trips events from newer builds losslessly. Unknown is a read-side
// type — emitting one through a Recorder would re-serialise Raw verbatim,
// ignoring the journal's sequence numbering, so don't.
type Unknown struct {
	Head
	Raw json.RawMessage `json:"-"`
}

// UnmarshalJSON captures the envelope and keeps the raw line.
func (u *Unknown) UnmarshalJSON(b []byte) error {
	if err := json.Unmarshal(b, &u.Head); err != nil {
		return err
	}
	u.Raw = append(u.Raw[:0], b...)
	return nil
}

// MarshalJSON re-emits the preserved line byte-identically.
func (u *Unknown) MarshalJSON() ([]byte, error) {
	if len(u.Raw) > 0 {
		return append([]byte(nil), u.Raw...), nil
	}
	return json.Marshal(u.Head)
}

// Kind implements Event.
func (u *Unknown) Kind() string { return u.T }
