package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// rounds holds one side's ns/op per benchmark, one entry per round, in the
// order the rounds ran, and the benchmarks in the order they first appear.
type rounds struct {
	names []string
	ns    map[string][]float64
}

// parseRounds reads the concatenated `go test -bench` output of alternating
// rounds: the i-th result of a benchmark is its value in round i.
func parseRounds(r io.Reader) (rounds, error) {
	out := rounds{ns: map[string][]float64{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, v, ok, err := benchValue(sc.Text(), "ns/op")
		if err != nil {
			return out, err
		}
		if !ok {
			continue
		}
		if _, seen := out.ns[name]; !seen {
			out.names = append(out.names, name)
		}
		out.ns[name] = append(out.ns[name], v)
	}
	return out, sc.Err()
}

// pairResult compares one benchmark across paired rounds.
type pairResult struct {
	name                  string
	baseMedian, changeMed float64 // ns/op
	ratio                 float64 // median of the per-round base/change ratios
	wins, n               int     // rounds the change ran faster in, of n
}

// comparePairs pairs round i of base with round i of change for every
// benchmark of base. Both sides must hold the same benchmarks with the
// same round count.
func comparePairs(base, change rounds) ([]pairResult, error) {
	if len(base.names) == 0 {
		return nil, fmt.Errorf("no benchmark results in the base rounds")
	}
	var out []pairResult
	for _, name := range base.names {
		b, c := base.ns[name], change.ns[name]
		if len(b) != len(c) {
			return nil, fmt.Errorf("%s: %d base rounds, %d change rounds", name, len(b), len(c))
		}
		res := pairResult{name: name, baseMedian: median(b), changeMed: median(c), n: len(b)}
		ratios := make([]float64, len(b))
		for i := range b {
			ratios[i] = b[i] / c[i]
			if c[i] < b[i] {
				res.wins++
			}
		}
		res.ratio = median(ratios)
		out = append(out, res)
	}
	if len(change.names) != len(base.names) {
		return nil, fmt.Errorf("%d benchmarks in the change rounds, %d in the base rounds", len(change.names), len(base.names))
	}
	return out, nil
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// quartiles returns the first quartile, the median and the third quartile
// of xs by the exclusive method, the default of Python's
// statistics.quantiles(xs, n=4) that bench/run.sh reports spreads with:
// quartile k sits at the 1-based rank k(n+1)/4, interpolated between the
// two values beside it. For fewer than three values a rank below 1 or
// above n is clamped to the nearest value, where Python extrapolates.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	var q [3]float64
	for k := 1; k <= 3; k++ {
		r4 := max(4, min(k*(n+1), 4*n)) // four times the clamped rank
		j, d := r4/4, r4%4
		q[k-1] = s[j-1]
		if d > 0 {
			q[k-1] = (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
		}
	}
	return q
}

// runPair reads the base and change round files, prints the comparison and
// returns the exit status: 1 when a median ratio falls below 1-tolerance.
func runPair(files []string, tolerance float64, w io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchgate: -pair takes two files: the base rounds and the change rounds")
		return 2
	}
	var sides [2]rounds
	for i, file := range files {
		f, err := os.Open(file)
		check(err)
		sides[i], err = parseRounds(f)
		f.Close()
		check(err)
	}
	results, err := comparePairs(sides[0], sides[1])
	check(err)
	failed := false
	fmt.Fprintf(w, "%-34s %14s %14s %11s %6s\n", "benchmark (ns/op, medians)", "base", "change", "base/change", "wins")
	for _, r := range results {
		status := "ok"
		if r.ratio < 1-tolerance {
			status, failed = "FAIL", true
		}
		fmt.Fprintf(w, "%-34s %14.0f %14.0f %10.3fx %6s  %s\n",
			r.name, r.baseMedian, r.changeMed, r.ratio, strconv.Itoa(r.wins)+"/"+strconv.Itoa(r.n), status)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: a median per-round ratio fell below %.2f (base ns/op over change ns/op)\n", 1-tolerance)
		return 1
	}
	return 0
}

// benchValue extracts the named metric from one `go test -bench` output
// line: a value token immediately followed by the metric's unit token. The
// benchmark name is the first field with any -<GOMAXPROCS> suffix removed.
func benchValue(line, metric string) (name string, v float64, ok bool, err error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", 0, false, nil
	}
	name = fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	for i := 1; i+1 < len(fields); i++ {
		if fields[i+1] != metric {
			continue
		}
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, false, fmt.Errorf("bad %s value in %q: %v", metric, line, err)
		}
		return name, v, true, nil
	}
	return "", 0, false, nil
}
