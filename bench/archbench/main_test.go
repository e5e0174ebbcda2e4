package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

// shrink returns s at smoke-test size — a 24-simulation budget and
// 1000-instruction traces, with windows small enough that the streamed
// workload still spans several — so every code path runs in seconds.
func shrink(s spec) spec {
	if s.budget > 0 {
		s.budget = 24
	}
	s.traceLen = 1000
	if s.degWindow > 0 {
		s.degWindow = 250
	}
	return s
}

func smoke(trace bool, p pins) options {
	return options{seed: 1, trace: trace, minReps: 1, untracedReps: 1, setupPasses: 1, pins: p}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program prints
// and the ones BENCHMARK.json declares from drifting apart.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list     string
		declared []struct{ Name, Unit string }
		printed  []metric
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		var got []metric
		for _, m := range c.declared {
			got = append(got, metric{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.printed) {
			t.Errorf("BENCHMARK.json %s = %v, program prints %v", c.list, got, c.printed)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke size and
// checks the result line: correct, at least one attempt, and exactly the
// declared metrics, each with its unit.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		s := shrink(s)
		for _, trace := range []bool{false, true} {
			res, det, err := run(&s, smoke(trace, nil))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d violations=%v",
					s.name, trace, res.Correct, res.Attempted, res.Failed, det.Violations)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", s.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", s.name, trace, m.name, v, m.unit)
				}
			}
		}
	}
}

// TestTamperedPinFails pins a workload's observed outcome, checks that the
// pin passes, then perturbs each pinned field and checks the run fails.
func TestTamperedPinFails(t *testing.T) {
	s, _ := specByName("explore")
	s = shrink(s)
	_, det, err := run(&s, smoke(false, nil))
	if err != nil {
		t.Fatal(err)
	}
	pinned := det.Outcome
	res, det, err := run(&s, smoke(false, pins{s.name: {"1": pinned}}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || !det.Pinned {
		t.Fatalf("run against its own outcome: correct=%v pinned=%v violations=%v", res.Correct, det.Pinned, det.Violations)
	}
	for _, tamper := range []func(*signature){
		func(g *signature) { g.HV = math.Nextafter(g.HV, math.Inf(1)) },
		func(g *signature) { g.Sims++ },
		func(g *signature) { g.History-- },
		func(g *signature) { g.Fingerprint = "0000000000000000" },
	} {
		bad := pinned
		tamper(&bad)
		res, _, err := run(&s, smoke(false, pins{s.name: {"1": bad}}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("run passed against tampered pin %+v", bad)
		}
	}
}
