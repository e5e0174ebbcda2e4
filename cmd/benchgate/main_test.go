package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
BenchmarkSimFull-8    	     100	  12345 ns/op	   3200000 inst/s	  64 B/op
BenchmarkPipelineStreamPar	      80	  30959063 ns/op	   2584060 inst/s
BenchmarkNoMetric-8   	     100	  999 ns/op
PASS
`
	m, err := parseBench(strings.NewReader(out), "inst/s")
	if err != nil {
		t.Fatal(err)
	}
	if got := m["BenchmarkSimFull"]; got != 3200000 {
		t.Fatalf("suffix-stripped benchmark: got %v", got)
	}
	if got := m["BenchmarkPipelineStreamPar"]; got != 2584060 {
		t.Fatalf("unsuffixed benchmark: got %v", got)
	}
	if _, ok := m["BenchmarkNoMetric"]; ok {
		t.Fatal("benchmark without the metric should not be recorded")
	}
	if _, err := parseBench(strings.NewReader("BenchmarkBad 1 2 ns/op bogus inst/s\n"), "inst/s"); err == nil {
		t.Fatal("unparseable metric value accepted")
	}
}

func TestResolveBaselineBenchRef(t *testing.T) {
	measured := map[string]float64{"BenchmarkSeq": 1000}
	v, err := resolveBaseline("bench:BenchmarkSeq", measured)
	if err != nil || v != 1000 {
		t.Fatalf("bench ref: %v %v", v, err)
	}
	if _, err := resolveBaseline("bench:BenchmarkGone", measured); err == nil {
		t.Fatal("missing bench ref accepted")
	}
}

func TestResolveBaselineMultiplier(t *testing.T) {
	measured := map[string]float64{"BenchmarkSeq": 1000}
	v, err := resolveBaseline("1.5*bench:BenchmarkSeq", measured)
	if err != nil || math.Abs(v-1500) > 1e-9 {
		t.Fatalf("scaled bench ref: %v %v", v, err)
	}
	// strconv.ParseFloat accepts "NaN" and the infinities, and NaN <= 0 is
	// false, so these used to sail through the non-positive check and turn
	// every floor comparison vacuously green. They must be rejected with an
	// error that names the problem.
	cases := []struct {
		ref     string
		wantErr string
	}{
		{"NaN*bench:BenchmarkSeq", "non-finite multiplier"},
		{"nan*bench:BenchmarkSeq", "non-finite multiplier"},
		{"+Inf*bench:BenchmarkSeq", "non-finite multiplier"},
		{"Inf*bench:BenchmarkSeq", "non-finite multiplier"},
		{"-Inf*bench:BenchmarkSeq", "non-finite multiplier"},
		{"infinity*bench:BenchmarkSeq", "non-finite multiplier"},
		{"0*bench:BenchmarkSeq", "non-positive multiplier"},
		{"-2*bench:BenchmarkSeq", "non-positive multiplier"},
		{"x*bench:BenchmarkSeq", "malformed multiplier"},
	}
	for _, c := range cases {
		_, err := resolveBaseline(c.ref, measured)
		if err == nil {
			t.Errorf("multiplier ref %q accepted, want error containing %q", c.ref, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("multiplier ref %q: error %q does not contain %q", c.ref, err, c.wantErr)
		}
	}
}

func TestResolveBaselineFileRef(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(`{"after": {"inst_per_sec": 2000, "note": "x"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := resolveBaseline(path+":after.inst_per_sec", nil)
	if err != nil || v != 2000 {
		t.Fatalf("file ref: %v %v", v, err)
	}
	v, err = resolveBaseline("2*"+path+":after.inst_per_sec", nil)
	if err != nil || v != 4000 {
		t.Fatalf("scaled file ref: %v %v", v, err)
	}
	for _, bad := range []string{
		"no-colon-ref",
		path + ":after.missing",
		path + ":after.note",
		path + ":after.inst_per_sec.deeper",
	} {
		if _, err := resolveBaseline(bad, nil); err == nil {
			t.Fatalf("bad file ref %q accepted", bad)
		}
	}
}
