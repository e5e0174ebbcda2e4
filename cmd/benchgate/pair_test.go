package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// roundsOut renders one side's rounds as concatenated `go test -bench`
// output, one round per element of ns, each round's benchmarks in order.
func roundsOut(names []string, ns ...[]float64) string {
	var b strings.Builder
	for _, round := range ns {
		b.WriteString("goos: linux\n")
		for i, name := range names {
			b.WriteString(name + "    \t     100\t  " + strconv.FormatFloat(round[i], 'f', -1, 64) + " ns/op\t  64 B/op\n")
		}
		b.WriteString("PASS\n")
	}
	return b.String()
}

func TestComparePairs(t *testing.T) {
	names := []string{"BenchmarkA", "BenchmarkB"}
	base, err := parseRounds(strings.NewReader(roundsOut(names, []float64{100, 50}, []float64{120, 50}, []float64{110, 40})))
	if err != nil {
		t.Fatal(err)
	}
	change, err := parseRounds(strings.NewReader(roundsOut(names, []float64{50, 60}, []float64{60, 50}, []float64{100, 50})))
	if err != nil {
		t.Fatal(err)
	}
	got, err := comparePairs(base, change)
	if err != nil {
		t.Fatal(err)
	}
	// A: ratios 2, 2, 1.1 -> median 2; medians 110 and 60; change won 3/3.
	// B: ratios 0.833, 1, 0.8 -> median 0.833; change won 0/3 (a tie is no win).
	a, b := got[0], got[1]
	if a.name != "BenchmarkA" || a.baseMedian != 110 || a.changeMed != 60 || a.ratio != 2 || a.wins != 3 || a.n != 3 {
		t.Fatalf("A: %+v", a)
	}
	if b.name != "BenchmarkB" || b.baseMedian != 50 || b.changeMed != 50 || b.ratio != 50.0/60 || b.wins != 0 {
		t.Fatalf("B: %+v", b)
	}

	short, _ := parseRounds(strings.NewReader(roundsOut(names, []float64{1, 1})))
	if _, err := comparePairs(base, short); err == nil {
		t.Fatal("unequal round counts accepted")
	}
	other, _ := parseRounds(strings.NewReader(roundsOut([]string{"BenchmarkA", "BenchmarkB", "BenchmarkC"},
		[]float64{1, 1, 1}, []float64{1, 1, 1}, []float64{1, 1, 1})))
	if _, err := comparePairs(base, other); err == nil {
		t.Fatal("an extra change benchmark accepted")
	}
	if _, err := comparePairs(rounds{}, change); err == nil {
		t.Fatal("empty base rounds accepted")
	}
}

func TestRunPairTolerance(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	names := []string{"BenchmarkA"}
	base := write("base.txt", roundsOut(names, []float64{100}, []float64{100}))
	slower := write("change.txt", roundsOut(names, []float64{104}, []float64{104}))
	var out strings.Builder
	if code := runPair([]string{base, slower}, 0.05, &out); code != 0 {
		t.Fatalf("a 4%% slowdown failed a 5%% tolerance (exit %d):\n%s", code, out.String())
	}
	if code := runPair([]string{base, slower}, 0.02, &out); code != 1 {
		t.Fatalf("a 4%% slowdown passed a 2%% tolerance (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkA") || !strings.Contains(out.String(), "0/2") {
		t.Fatalf("report lacks the benchmark or its wins:\n%s", out.String())
	}
	if code := runPair([]string{base}, 0.05, &out); code != 2 {
		t.Fatalf("one file: exit %d, want 2", code)
	}
}
