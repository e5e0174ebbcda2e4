// Package persist serialises exploration artefacts — configurations,
// evaluations, bottleneck reports, and whole DSE campaigns — to JSON so
// runs can be stored, resumed, diffed, and post-processed outside the
// process (the equivalent of the exploration set the paper's flow keeps on
// disk between the DSE and the final full-Simpoint re-evaluation).
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"archexplorer/internal/deg"
	"archexplorer/internal/dse"
	"archexplorer/internal/pareto"
	"archexplorer/internal/uarch"
)

// CampaignVersion is the on-disk format version this build writes. Older
// files (including pre-versioning ones, which read back as version 0) still
// load; files from a newer build are rejected rather than misread.
const CampaignVersion = 1

// ReportJSON is the stable on-disk form of a bottleneck report.
type ReportJSON struct {
	Cycles       int64              `json:"cycles"`
	Base         float64            `json:"base"`
	Contribution map[string]float64 `json:"contribution"`
	EdgeCounts   map[string]int     `json:"edge_counts"`
}

// FromReport converts a DEG report.
func FromReport(r *deg.Report) ReportJSON {
	out := ReportJSON{
		Cycles:       r.L,
		Base:         r.Base,
		Contribution: map[string]float64{},
		EdgeCounts:   map[string]int{},
	}
	for _, res := range uarch.Resources() {
		if r.Contrib[res] != 0 {
			out.Contribution[res.String()] = r.Contrib[res]
		}
		if r.EdgeCount[res] != 0 {
			out.EdgeCounts[res.String()] = r.EdgeCount[res]
		}
	}
	return out
}

// ToReport reconstructs the DEG report a ReportJSON was written from —
// everything the explorer consumes (cycles, base, per-resource contribution
// and edge counts) round-trips exactly; the absolute per-resource delays
// are not persisted and read back as zero.
func (rj *ReportJSON) ToReport() (*deg.Report, error) {
	out := &deg.Report{L: rj.Cycles, Base: rj.Base}
	for name, v := range rj.Contribution {
		res, ok := uarch.ResourceByName(name)
		if !ok {
			return nil, fmt.Errorf("persist: unknown resource %q in report", name)
		}
		out.Contrib[res] = v
	}
	for name, n := range rj.EdgeCounts {
		res, ok := uarch.ResourceByName(name)
		if !ok {
			return nil, fmt.Errorf("persist: unknown resource %q in report", name)
		}
		out.EdgeCount[res] = n
	}
	return out, nil
}

// EvaluationJSON is one explored design. The fields beyond the original
// config/PPA core exist for checkpoint resume: Point pins the design's
// space coordinates (older files lack it and fall back to re-encoding the
// config), PerWorkloadIPC and the failure fields let a resumed run replay
// this evaluation's exact outcome, and Times carries its worker-time split
// so stage totals still account the whole logical run.
type EvaluationJSON struct {
	Config         uarch.Config    `json:"config"`
	Point          []int           `json:"point,omitempty"`
	Perf           float64         `json:"perf_ipc"`
	PowerW         float64         `json:"power_w"`
	AreaMM2        float64         `json:"area_mm2"`
	Probe          bool            `json:"probe,omitempty"`
	SimsAt         float64         `json:"sims_at"`
	PerWorkloadIPC []float64       `json:"per_workload_ipc,omitempty"`
	Report         *ReportJSON     `json:"report,omitempty"`
	Times          *StageTimesJSON `json:"times,omitempty"`
	Failed         bool            `json:"failed,omitempty"`
	FailSite       string          `json:"fail_site,omitempty"`
	FailReason     string          `json:"fail_reason,omitempty"`
}

// StageTimesJSON is the stable on-disk form of the evaluator's
// per-stage worker-time totals (nanoseconds, so the round trip is
// integral and exact).
type StageTimesJSON struct {
	TraceNS int64 `json:"trace_ns"`
	SimNS   int64 `json:"sim_ns"`
	PowerNS int64 `json:"power_ns"`
	DEGNS   int64 `json:"deg_ns"`
	// DEGStreamNS is the fused simulate+analyze stage of streamed
	// (windowed full) evaluations; omitted when zero so whole-trace
	// campaign checkpoints stay byte-identical to pre-streaming builds.
	DEGStreamNS int64 `json:"deg_stream_ns,omitempty"`
}

// FromStageTimes converts evaluator stage totals.
func FromStageTimes(st dse.StageTimes) StageTimesJSON {
	return StageTimesJSON{
		TraceNS:     st.Trace.Nanoseconds(),
		SimNS:       st.Sim.Nanoseconds(),
		PowerNS:     st.Power.Nanoseconds(),
		DEGNS:       st.DEG.Nanoseconds(),
		DEGStreamNS: st.DEGStream.Nanoseconds(),
	}
}

// ToStageTimes is the inverse of FromStageTimes.
func (st StageTimesJSON) ToStageTimes() dse.StageTimes {
	return dse.StageTimes{
		Trace:     time.Duration(st.TraceNS),
		Sim:       time.Duration(st.SimNS),
		Power:     time.Duration(st.PowerNS),
		DEG:       time.Duration(st.DEGNS),
		DEGStream: time.Duration(st.DEGStreamNS),
	}
}

// Campaign is a complete DSE run — and, since the checkpoint/resume work,
// also the checkpoint format: Designs carries enough per-evaluation state
// (point, per-workload IPCs, report, failure outcome) to replay the run up
// to the snapshot. Every field beyond the original core is optional
// (omitempty) so files written before it existed still load.
type Campaign struct {
	// Version is the on-disk format version (see CampaignVersion);
	// pre-versioning files read back as 0.
	Version   int     `json:"version,omitempty"`
	Method    string  `json:"method"`
	Suite     string  `json:"suite"`
	Budget    int     `json:"budget"`
	SimsSpent float64 `json:"sims_spent"`
	// Seed and TraceLen pin the run's reproducibility knobs so a resume
	// can refuse a checkpoint written under incompatible settings.
	Seed     int64 `json:"seed,omitempty"`
	TraceLen int   `json:"trace_len,omitempty"`
	// StageTimes records where worker time went (trace/sim/power/DEG)
	// for the run that produced this campaign.
	StageTimes *StageTimesJSON `json:"stage_times,omitempty"`
	// Journal is the path of the JSONL run journal written alongside
	// this campaign, when the run had -journal set.
	Journal string           `json:"journal,omitempty"`
	Designs []EvaluationJSON `json:"designs"`
}

// FromEvaluator captures an evaluator's history after an explorer ran (or
// mid-run, for a checkpoint). The caller stamps Seed; everything else comes
// from the evaluator.
func FromEvaluator(method, suite string, budget int, ev *dse.Evaluator) Campaign {
	c := Campaign{
		Version: CampaignVersion,
		Method:  method, Suite: suite, Budget: budget,
		SimsSpent: ev.Sims, TraceLen: ev.TraceLen,
	}
	st := FromStageTimes(ev.StageTotals())
	c.StageTimes = &st
	for _, e := range ev.History {
		ej := EvaluationJSON{
			Config:     e.Config,
			Point:      append([]int(nil), e.Point[:]...),
			Perf:       e.PPA.Perf,
			PowerW:     e.PPA.Power,
			AreaMM2:    e.PPA.Area,
			Probe:      e.Probe,
			SimsAt:     e.SimsAt,
			Failed:     e.Failed,
			FailSite:   e.FailSite,
			FailReason: e.FailReason,
		}
		if !e.Failed {
			ej.PerWorkloadIPC = append([]float64(nil), e.PerWorkloadIPC...)
			t := FromStageTimes(e.Times)
			ej.Times = &t
		}
		if e.Report != nil {
			r := FromReport(e.Report)
			ej.Report = &r
		}
		c.Designs = append(c.Designs, ej)
	}
	return c
}

// Canonical returns a copy of the campaign with every non-deterministic
// field stripped: the stage-time totals, the per-design worker times, and
// the journal path. Two runs of the same campaign — including one that was
// killed and resumed — serialise canonically to identical bytes.
func (c *Campaign) Canonical() Campaign {
	out := *c
	out.StageTimes = nil
	out.Journal = ""
	out.Designs = append([]EvaluationJSON(nil), c.Designs...)
	for i := range out.Designs {
		out.Designs[i].Times = nil
	}
	return out
}

// Points converts the campaign back to PPA points (full evaluations only
// unless probes is true), preserving completion order.
func (c *Campaign) Points(probes bool) []pareto.Point {
	var out []pareto.Point
	for _, d := range c.Designs {
		if (d.Probe && !probes) || d.Failed {
			continue
		}
		out = append(out, pareto.Point{Perf: d.Perf, Power: d.PowerW, Area: d.AreaMM2})
	}
	return out
}

// Write serialises the campaign as indented JSON.
func (c *Campaign) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// Read parses a campaign, rejecting files written by a newer format.
func Read(r io.Reader) (*Campaign, error) {
	var c Campaign
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("persist: decode campaign: %w", err)
	}
	if c.Version > CampaignVersion {
		return nil, fmt.Errorf("persist: campaign format v%d is newer than this build's v%d",
			c.Version, CampaignVersion)
	}
	return &c, nil
}

// Save writes the campaign to a file atomically: the JSON lands in a temp
// file in the destination directory, is synced, and replaces the target
// with a rename — so a crash mid-write (or mid-checkpoint) leaves either
// the previous complete file or the new one, never a truncated hybrid.
func (c *Campaign) Save(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: save %s: %w", path, err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("persist: save %s: %w", path, err)
	}
	if err := c.Write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: save %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("persist: save %s: %w", path, err)
	}
	return nil
}

// Load reads a campaign from a file.
func Load(path string) (*Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// ValidateCampaign checks structural invariants after a round trip.
func ValidateCampaign(c *Campaign) error {
	if c.Method == "" {
		return fmt.Errorf("persist: campaign missing method")
	}
	prev := 0.0
	for i, d := range c.Designs {
		if err := d.Config.Validate(); err != nil {
			return fmt.Errorf("persist: design %d: %w", i, err)
		}
		// A failed (degraded-skip) evaluation legitimately has zero PPA.
		if !d.Failed && (d.Perf <= 0 || d.PowerW <= 0 || d.AreaMM2 <= 0) {
			return fmt.Errorf("persist: design %d has non-positive PPA", i)
		}
		if d.SimsAt < prev {
			return fmt.Errorf("persist: design %d breaks budget ordering", i)
		}
		prev = d.SimsAt
	}
	return nil
}
