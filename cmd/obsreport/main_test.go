package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"archexplorer/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestRecoveryReportGolden pins the rendered report — recovery timeline
// included — for a journaled run that retried, timed out, skipped, lost a
// snapshot, checkpointed, and resumed.
func TestRecoveryReportGolden(t *testing.T) {
	events, err := obs.LoadJournal(filepath.Join("testdata", "recovery.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, events, 4, 10)

	golden := filepath.Join("testdata", "recovery.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden file (rerun with -update to accept)\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

// TestCriticalPathGolden pins obsreport -critical-path byte for byte on a
// checked-in campaign journal with span events: the self-DEG attribution
// must reproduce exactly on every analysis of the same journal.
func TestCriticalPathGolden(t *testing.T) {
	events, err := obs.LoadJournal(filepath.Join("testdata", "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := criticalPath(&buf, events); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("critical-path report drifted from golden file (rerun with -update to accept)\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}

	// Re-analysis of the same events must render identically.
	var again bytes.Buffer
	if err := criticalPath(&again, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("critical-path report not reproducible within one process")
	}
}

// TestCriticalPathWithoutSpans: pre-span journals get a clear error, and
// the default report still renders for them.
func TestCriticalPathWithoutSpans(t *testing.T) {
	events := []obs.Event{
		&obs.RunStart{Tool: "archexplorer", Budget: 4},
		&obs.EvalSpan{Span: 1, SimsAt: 2, Perf: 1, PowerW: 1, AreaMM2: 10},
		&obs.RunEnd{Tool: "archexplorer", Sims: 4},
	}
	if err := criticalPath(&bytes.Buffer{}, events); err == nil {
		t.Fatal("span-less journal did not error")
	}
}

// TestReportWithoutRecoveryEvents: a journal with no fault/checkpoint/
// resume events renders no recovery section at all.
func TestReportWithoutRecoveryEvents(t *testing.T) {
	events := []obs.Event{
		&obs.RunStart{Tool: "archexplorer", Budget: 4},
		&obs.EvalSpan{Span: 1, SimsAt: 2, Perf: 1, PowerW: 1, AreaMM2: 10},
		&obs.RunEnd{Tool: "archexplorer", Sims: 4},
	}
	var buf bytes.Buffer
	report(&buf, events, 2, 0)
	if bytes.Contains(buf.Bytes(), []byte("recovery timeline")) {
		t.Fatalf("clean run grew a recovery section:\n%s", buf.String())
	}
}

// TestSimThroughputSkipsStreamedSpans: a streamed evaluation journals its
// instructions with no sim time (its time is in deg_stream_ns), so the
// simulator throughput line counts only the spans that timed a sim stage.
func TestSimThroughputSkipsStreamedSpans(t *testing.T) {
	spans := []*obs.EvalSpan{
		{Span: 1, Probe: true, SimInsts: 1500, SimNS: int64(time.Millisecond)},
		{Span: 2, SimInsts: 360, DEGStreamNS: int64(2 * time.Millisecond)},
	}
	var buf bytes.Buffer
	printStages(&buf, spans)
	want := "simulator throughput: 1500 insts in 1ms (1500000 insts/s)"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report lacks %q:\n%s", want, buf.String())
	}
}
