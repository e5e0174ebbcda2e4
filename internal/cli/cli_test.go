package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// parseDEG registers the DEG flags on a fresh FlagSet and parses args.
func parseDEG(args ...string) (DEG, error) {
	var d DEG
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	d.AddDEGFlags(fs)
	return d, fs.Parse(args)
}

// TestDEGFlags: -deg-window is the one DEG flag. It takes a window size,
// rejects a negative one at parse time, and -deg-stream and -deg-overlap
// no longer exist.
func TestDEGFlags(t *testing.T) {
	if d, err := parseDEG("-deg-window=2000"); err != nil || d.Window != 2000 {
		t.Fatalf("-deg-window=2000: window %d, err %v", d.Window, err)
	}
	if d, err := parseDEG(); err != nil || d.Window != 0 {
		t.Fatalf("no flags: window %d, err %v", d.Window, err)
	}
	if _, err := parseDEG("-deg-window=-1"); err == nil {
		t.Fatal("-deg-window=-1 accepted")
	}
	for _, arg := range []string{"-deg-stream", "-deg-overlap=400"} {
		if _, err := parseDEG(arg); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Fatalf("%s: err %v, want an undefined-flag error", arg, err)
		}
	}
}

// TestTelemetryFlags: -metrics-addr is the one telemetry address. It
// serves /metrics, pprof and /dash on one mux, and -dash-addr, once an
// alias of it, no longer exists.
func TestTelemetryFlags(t *testing.T) {
	var tel Telemetry
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tel.AddTelemetryFlags(fs)
	if err := fs.Parse([]string{"-metrics-addr=localhost:0"}); err != nil || tel.MetricsAddr != "localhost:0" {
		t.Fatalf("-metrics-addr=localhost:0: addr %q, err %v", tel.MetricsAddr, err)
	}
	if err := fs.Parse([]string{"-dash-addr=localhost:0"}); err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("-dash-addr: err %v, want an undefined-flag error", err)
	}
}
