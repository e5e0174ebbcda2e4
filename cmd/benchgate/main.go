// Command benchgate compares `go test -bench` output against committed
// BENCH_*.json baselines and fails when throughput regresses beyond a
// tolerance. It is the teeth behind `make bench-all`: the baselines record
// what the optimized pipeline achieved on the reference host, and a >10%
// drop in inst/s on the same host means a hot-path regression slipped in.
//
// Usage:
//
//	go test -bench '...' -benchmem -run XXX . | \
//	    benchgate -tolerance 0.10 \
//	        -expect 'BenchmarkSimFull=BENCH_sim.json:after_full.inst_per_sec' \
//	        -expect 'BenchmarkPipelineStream=BENCH_pipeline.json:after.inst_per_sec'
//
// Each -expect maps a benchmark name (suffixes like -8 are ignored) to a
// dotted path into a baseline JSON file; the addressed value is the
// baseline inst/s. Benchmarks in the output without an -expect mapping are
// ignored; a mapped benchmark missing from the output is an error, so a
// renamed or deleted benchmark cannot silently drop out of the gate.
//
// A baseline ref may instead name another benchmark from the SAME run:
//
//	benchgate -tolerance 0.02 \
//	    -expect 'BenchmarkPipelineStreamSpans=bench:BenchmarkPipelineStream'
//
// bench: refs gate relative overheads (instrumented vs uninstrumented)
// without a committed number, so host speed cancels out of the comparison.
//
// Either ref form takes an optional leading multiplier:
//
//	benchgate -tolerance 0 \
//	    -expect 'BenchmarkPipelineStreamPar=1.5*bench:BenchmarkPipelineStream'
//
// scales the baseline before the tolerance applies — here requiring the
// parallel pipeline to reach at least 1.5× the same run's sequential
// throughput, a speedup floor rather than a regression floor.
//
// With -pair, benchgate compares two revisions measured in alternating
// rounds instead (`make bench-pair BASE=<rev>` runs them):
//
//	benchgate -pair -tolerance 0.05 base.txt change.txt
//
// Each file holds one side's rounds of `go test -bench` output, appended
// round after round; the i-th result of a benchmark in each file is its
// round i. For each benchmark it prints the two median ns/op, the median of
// the per-round ratios base/change (above 1 when the change is faster) and
// the rounds the change won, and it fails if a median ratio falls below
// 1-tolerance. Pairing rounds run back to back cancels the host's drift,
// which a gate against numbers recorded on another day cannot.
//
// With -archpair, it compares archbench runs of two revisions made in
// alternating pairs (`make archbench-pair BASE=<rev> WORKLOAD=<name>` runs
// them):
//
//	benchgate -archpair BENCHMARK.json base.jsonl change.jsonl
//
// Each .jsonl file holds one side's archbench result lines, one run per
// line; line i of each file is pair i. For each end-to-end metric that
// BENCHMARK.json lists it prints both medians with their quartiles (by
// the exclusive method, as bench/run.sh reports them), the median
// per-pair ratio base/change (as -pair prints it), the pairs the change
// won and lost (ties count for neither) and a verdict, and under the
// table each side's failed operations. It fails if a metric's median is
// worse than its bound allows, a run failed its correctness checks, or
// the change failed a larger share of its operations.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

type expectList []string

func (e *expectList) String() string     { return strings.Join(*e, ",") }
func (e *expectList) Set(s string) error { *e = append(*e, s); return nil }

func main() {
	var (
		expects   expectList
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional throughput drop before failing")
		metric    = flag.String("metric", "inst/s", "benchmark metric unit to gate on")
		pair      = flag.Bool("pair", false, "compare the ns/op of two round files, base then change, given as arguments")
		archpair  = flag.Bool("archpair", false, "compare archbench result lines of two revisions: BENCHMARK.json, then the base and change files, given as arguments")
	)
	flag.Var(&expects, "expect", "Bench=file.json:dotted.path mapping (repeatable)")
	flag.Parse()
	if *pair {
		os.Exit(runPair(flag.Args(), *tolerance, os.Stdout))
	}
	if *archpair {
		os.Exit(runArchPair(flag.Args(), os.Stdout))
	}
	if len(expects) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no -expect mappings given")
		os.Exit(2)
	}

	measured, err := parseBench(os.Stdin, *metric)
	check(err)

	failed := false
	for _, e := range expects {
		name, ref, ok := strings.Cut(e, "=")
		if !ok {
			check(fmt.Errorf("malformed -expect %q (want Bench=file.json:path)", e))
		}
		baseline, err := resolveBaseline(ref, measured)
		check(err)
		got, ok := measured[name]
		if !ok {
			check(fmt.Errorf("benchmark %s not found in input (stale -expect or renamed benchmark?)", name))
		}
		floor := baseline * (1 - *tolerance)
		status := "ok"
		if got < floor {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%-34s %12.0f %s  baseline %12.0f  floor %12.0f  %s\n",
			name, got, *metric, baseline, floor, status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: throughput regressed more than %.0f%% below baseline\n", *tolerance*100)
		os.Exit(1)
	}
}

// parseBench extracts the named metric from `go test -bench` output lines
// (see benchValue).
func parseBench(r io.Reader, metric string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the log
		name, v, ok, err := benchValue(line, metric)
		if err != nil {
			return nil, err
		}
		if ok {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// resolveBaseline resolves a baseline ref: "bench:Name" reads another
// benchmark's value from the same run's measurements; anything else is a
// "file.json:dotted.path" into a committed baseline file. A leading
// "<factor>*" scales the resolved value, turning the gate into a speedup
// floor (e.g. "1.5*bench:BenchmarkPipelineStream").
func resolveBaseline(ref string, measured map[string]float64) (float64, error) {
	scale := 1.0
	if head, rest, ok := strings.Cut(ref, "*"); ok {
		f, err := strconv.ParseFloat(head, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed multiplier in baseline ref %q: %v", ref, err)
		}
		// ParseFloat accepts "NaN" and "+Inf", and `NaN <= 0` is false, so
		// a plain non-positive check would wave both through — a NaN scale
		// makes every floor comparison false and the gate vacuously green.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("non-finite multiplier %v in baseline ref %q", f, ref)
		}
		if f <= 0 {
			return 0, fmt.Errorf("non-positive multiplier in baseline ref %q", ref)
		}
		scale, ref = f, rest
	}
	if name, ok := strings.CutPrefix(ref, "bench:"); ok {
		v, ok := measured[name]
		if !ok {
			return 0, fmt.Errorf("baseline benchmark %s not found in input", name)
		}
		return scale * v, nil
	}
	v, err := lookupBaseline(ref)
	return scale * v, err
}

// lookupBaseline resolves "file.json:dotted.path" to a number inside the
// baseline file.
func lookupBaseline(ref string) (float64, error) {
	file, path, ok := strings.Cut(ref, ":")
	if !ok {
		return 0, fmt.Errorf("malformed baseline ref %q (want file.json:dotted.path)", ref)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		return 0, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("%s: %v", file, err)
	}
	cur := doc
	for _, key := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, fmt.Errorf("%s: %q is not an object", file, path)
		}
		if cur, ok = m[key]; !ok {
			return 0, fmt.Errorf("%s: no field %q in path %q", file, key, path)
		}
	}
	v, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("%s: %q is not a number", file, path)
	}
	return v, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
}
