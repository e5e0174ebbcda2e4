package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
)

// archSpec is the part of BENCHMARK.json that archpair reads: each
// end-to-end metric's name, which direction is better and its bound, the
// largest relative worsening a change may show.
type archSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// archResult is the last line archbench prints for one run.
type archResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseArchRuns reads one side's result lines, one run per line, in the
// order the runs were made; blank lines are skipped.
func parseArchRuns(r io.Reader) ([]archResult, error) {
	var out []archResult
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res archResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("line %d: %v", n, err)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// archMetric compares one end-to-end metric across paired runs.
type archMetric struct {
	name, unit      string
	base, change    [3]float64 // first quartile, median, third quartile
	ratio           float64    // median of the per-pair base/change ratios, as -pair prints them
	wins, losses, n int        // pairs the change was better and worse in, of n
	verdict         string
}

// archSide totals one side's operations over its runs.
type archSide struct {
	attempted, failed, incorrect int
}

func (s archSide) failedShare() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func totalSide(runs []archResult) archSide {
	var s archSide
	for _, r := range runs {
		s.attempted += r.Attempted
		s.failed += r.Failed
		if !r.Correct {
			s.incorrect++
		}
	}
	return s
}

// compareArchRuns pairs run i of base with run i of change for every
// end-to-end metric of the spec. The verdict of a metric is
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - unresolved: otherwise, if either side's quartile spread exceeds the
//     bound of its median, so that the runs cannot tell, unless every
//     change run is better than every base run;
//   - gain: otherwise, if there are at least ten pairs, the change won at
//     least nine in ten and its median is better by more than the base's
//     quartile spread;
//   - ok: none of these.
func compareArchRuns(spec archSpec, base, change []archResult) ([]archMetric, error) {
	if len(base) == 0 {
		return nil, fmt.Errorf("no base runs")
	}
	if len(base) != len(change) {
		return nil, fmt.Errorf("%d base runs, %d change runs", len(base), len(change))
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("the benchmark spec lists no end_to_end metrics")
	}
	var out []archMetric
	for _, m := range spec.EndToEnd {
		res := archMetric{name: m.Name, unit: m.Unit, n: len(base)}
		lower := m.Better == "lower"
		if !lower && m.Better != "higher" {
			return nil, fmt.Errorf("%s: better is %q, want lower or higher", m.Name, m.Better)
		}
		b, c := make([]float64, len(base)), make([]float64, len(change))
		ratios := make([]float64, len(base))
		for i := range base {
			bv, ok := base[i].Metrics[m.Name]
			cv, ok2 := change[i].Metrics[m.Name]
			if !ok || !ok2 {
				return nil, fmt.Errorf("pair %d lacks %s", i+1, m.Name)
			}
			b[i], c[i] = bv.Value, cv.Value
			ratios[i] = b[i] / c[i]
			if b[i] != c[i] {
				if (c[i] < b[i]) == lower {
					res.wins++
				} else {
					res.losses++
				}
			}
		}
		res.base, res.change = quartiles(b), quartiles(c)
		res.ratio = median(ratios)
		gain := res.change[1] - res.base[1] // how much better the change's median is
		allBetter := slices.Min(c) > slices.Max(b)
		if lower {
			gain = -gain
			allBetter = slices.Max(c) < slices.Min(b)
		}
		switch spread := func(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }; {
		case -gain/res.base[1] > m.Bound:
			res.verdict = "worse"
		case (spread(res.base) > m.Bound || spread(res.change) > m.Bound) && !allBetter:
			res.verdict = "unresolved"
		case res.n >= 10 && 10*res.wins >= 9*res.n && gain > res.base[2]-res.base[0]:
			res.verdict = "gain"
		default:
			res.verdict = "ok"
		}
		out = append(out, res)
	}
	return out, nil
}

// runArchPair reads the benchmark spec and both sides' result lines,
// prints the comparison and returns the exit status: 1 when a metric is
// worse than its bound allows, a run failed its correctness checks, or the
// change failed a larger share of its operations than the base.
func runArchPair(files []string, w io.Writer) int {
	if len(files) != 3 {
		fmt.Fprintln(os.Stderr, "benchgate: -archpair takes three files: BENCHMARK.json, the base result lines and the change result lines")
		return 2
	}
	raw, err := os.ReadFile(files[0])
	check(err)
	var spec archSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		check(fmt.Errorf("%s: %v", files[0], err))
	}
	var sides [2][]archResult
	for i, file := range files[1:] {
		f, err := os.Open(file)
		check(err)
		sides[i], err = parseArchRuns(f)
		f.Close()
		if err != nil {
			check(fmt.Errorf("%s: %v", file, err))
		}
	}
	metrics, err := compareArchRuns(spec, sides[0], sides[1])
	check(err)
	base, change := totalSide(sides[0]), totalSide(sides[1])

	fmt.Fprintf(w, "%-12s %-8s %28s %28s %11s %6s %6s  %s\n",
		"metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "base/change", "won", "lost", "verdict")
	status := 0
	for _, m := range metrics {
		if m.verdict == "worse" {
			status = 1
		}
		fmt.Fprintf(w, "%-12s %-8s %28s %28s %10.3fx %6s %6s  %s\n",
			m.name, m.unit, fmtQuartiles(m.base), fmtQuartiles(m.change), m.ratio,
			strconv.Itoa(m.wins)+"/"+strconv.Itoa(m.n), strconv.Itoa(m.losses)+"/"+strconv.Itoa(m.n), m.verdict)
	}
	for _, s := range []struct {
		name string
		archSide
	}{{"base", base}, {"change", change}} {
		fmt.Fprintf(w, "%-6s failed %d of %d operations, %d of %d runs failed their checks\n",
			s.name, s.failed, s.attempted, s.incorrect, len(sides[0]))
		if s.incorrect > 0 {
			status = 1
		}
	}
	if change.failedShare() > base.failedShare() {
		fmt.Fprintln(w, "change failed a larger share of its operations than base")
		status = 1
	}
	return status
}

func fmtQuartiles(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}
