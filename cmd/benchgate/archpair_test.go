package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const archSpecJSON = `{"end_to_end": [
	{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
	{"name": "sims_per_s", "unit": "sims/s", "better": "higher", "bound": 0.25},
	{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}
]}`

// archLine renders one archbench result line as the benchmark prints it.
func archLine(failed int, correct bool, wall, sims, rss float64) string {
	return fmt.Sprintf(`{"correct":%v,"attempted":14,"failed":%d,"metrics":{`+
		`"wall_s":{"value":%g,"unit":"s"},"sims_per_s":{"value":%g,"unit":"sims/s"},`+
		`"peak_rss_mb":{"value":%g,"unit":"MB"},"setup_s":{"value":0.05,"unit":"s"}}}`,
		correct, failed, wall, sims, rss)
}

func archRuns(t *testing.T, lines ...string) []archResult {
	t.Helper()
	runs, err := parseArchRuns(strings.NewReader(strings.Join(lines, "\n") + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func TestCompareArchRuns(t *testing.T) {
	var spec archSpec
	if err := json.Unmarshal([]byte(archSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	// Ten pairs. wall_s: the change is a little faster in 6 pairs, slower
	// in 2, tied in 2 (ok). sims_per_s: the base runs spread by far more
	// than the bound (unresolved). peak_rss_mb: the change is lower in 9
	// of 10 pairs by far more than the base's quartile spread (gain).
	var base, change []string
	for i := 0; i < 10; i++ {
		bw, cw := 1.0, 0.98
		switch i {
		case 0, 1:
			cw = 1.0
		case 2, 3:
			cw = 1.02
		}
		bs := 10.0
		if i%2 == 1 {
			bs = 20
		}
		cr := 60.0
		if i == 9 {
			cr = 106
		}
		base = append(base, archLine(0, true, bw, bs, 100+float64(i%3)))
		change = append(change, archLine(0, true, cw, 15, cr))
	}
	got, err := compareArchRuns(spec, archRuns(t, base...), archRuns(t, change...))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d metrics, want the spec's 3", len(got))
	}
	wall, sims, rss := got[0], got[1], got[2]
	if wall.name != "wall_s" || wall.wins != 6 || wall.losses != 2 || wall.n != 10 || wall.verdict != "ok" {
		t.Errorf("wall_s: %+v", wall)
	}
	if wall.base != [3]float64{1, 1, 1} || wall.change != [3]float64{0.98, 0.98, 1.005} || wall.ratio != 1/0.98 {
		t.Errorf("wall_s quartiles or ratio: %+v", wall)
	}
	if sims.verdict != "unresolved" || sims.wins != 5 || sims.losses != 5 {
		t.Errorf("sims_per_s: %+v", sims)
	}
	if rss.verdict != "gain" || rss.wins != 9 || rss.losses != 1 || rss.change[1] != 60 || rss.base != [3]float64{100, 101, 102} {
		t.Errorf("peak_rss_mb: %+v", rss)
	}

	// The same runs swapped: the RSS gain becomes a loss beyond its bound.
	swapped, err := compareArchRuns(spec, archRuns(t, change...), archRuns(t, base...))
	if err != nil {
		t.Fatal(err)
	}
	if swapped[2].verdict != "worse" || swapped[2].losses != 9 {
		t.Errorf("swapped peak_rss_mb: %+v", swapped[2])
	}

	// Nine of those pairs, all won: too few pairs to claim a gain.
	nine, err := compareArchRuns(spec, archRuns(t, base[:9]...), archRuns(t, change[:9]...))
	if err != nil {
		t.Fatal(err)
	}
	if nine[2].verdict != "ok" || nine[2].wins != 9 {
		t.Errorf("nine pairs, peak_rss_mb: %+v", nine[2])
	}

	if _, err := compareArchRuns(spec, archRuns(t, base...), archRuns(t, change[:9]...)); err == nil {
		t.Error("unequal run counts accepted")
	}
	if _, err := compareArchRuns(spec, nil, nil); err == nil {
		t.Error("no runs accepted")
	}
	noRSS := archRuns(t, `{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1},"sims_per_s":{"value":1}}}`)
	if _, err := compareArchRuns(spec, noRSS, noRSS); err == nil {
		t.Error("a run without peak_rss_mb accepted")
	}
	if _, err := parseArchRuns(strings.NewReader("{\"correct\":tru\n")); err == nil {
		t.Error("a malformed line accepted")
	}
}

// TestCompareArchRunsAllBetter: spreads wider than the bound leave a
// metric unresolved unless every change run is better than every base run.
func TestCompareArchRunsAllBetter(t *testing.T) {
	var spec archSpec
	if err := json.Unmarshal([]byte(archSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	var base, apart, touching []string
	for i := 0; i < 10; i++ {
		bw, cw := 1.0, 0.5 // base spread 1/1.5, change spread 0.4/0.7
		if i%2 == 1 {
			bw, cw = 2, 0.9
		}
		base = append(base, archLine(0, true, bw, 10, 100))
		apart = append(apart, archLine(0, true, cw, 10, 100))
		if i == 9 {
			cw = 1 // ties the fastest base run
		}
		touching = append(touching, archLine(0, true, cw, 10, 100))
	}
	got, err := compareArchRuns(spec, archRuns(t, base...), archRuns(t, apart...))
	if err != nil {
		t.Fatal(err)
	}
	// Won 10/10, but the medians differ by 0.8 s, under the base's
	// quartile distance of 1 s: no gain, and not unresolved either.
	if got[0].verdict != "ok" || got[0].wins != 10 {
		t.Errorf("every change run faster: %+v", got[0])
	}
	got, err = compareArchRuns(spec, archRuns(t, base...), archRuns(t, touching...))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].verdict != "unresolved" {
		t.Errorf("one change run tying a base run: %+v", got[0])
	}
}

func TestQuartiles(t *testing.T) {
	// Each case is what Python's statistics.quantiles(xs, n=4) returns,
	// the quartiles bench/run.sh reports. Ten values put them at ranks
	// 2.75, 5.5 and 8.25; the inclusive method's ranks 3.25 and 7.75
	// would read 2.25 and 5.75 for the first case.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, [3]float64{1.75, 3.5, 5.25}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		// Fewer than three values: clamped, where Python extrapolates.
		{[]float64{3, 1}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if got := median(c.xs); got != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want[1])
		}
	}
}

func TestRunArchPairStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	spec := write("BENCHMARK.json", archSpecJSON)
	base := write("base.jsonl", archLine(0, true, 1, 10, 100), archLine(0, true, 1, 10, 100))
	same := write("same.jsonl", archLine(0, true, 1, 10, 99), archLine(0, true, 1, 10, 99))
	failing := write("failing.jsonl", archLine(1, true, 1, 10, 99), archLine(0, true, 1, 10, 99))
	wrong := write("wrong.jsonl", archLine(0, false, 1, 10, 99), archLine(0, true, 1, 10, 99))
	bloated := write("bloated.jsonl", archLine(0, true, 1, 10, 130), archLine(0, true, 1, 10, 130))

	var out strings.Builder
	if code := runArchPair([]string{spec, base, same}, &out); code != 0 {
		t.Fatalf("an even pair failed (exit %d):\n%s", code, out.String())
	}
	for _, s := range []string{"peak_rss_mb", "99 [99, 99]", "2/2", "change failed 0 of 28 operations"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("report lacks %q:\n%s", s, out.String())
		}
	}
	for name, file := range map[string]string{"more failed operations": failing, "a failed check": wrong, "RSS beyond its bound": bloated} {
		out.Reset()
		if code := runArchPair([]string{spec, base, file}, &out); code != 1 {
			t.Errorf("%s: exit %d, want 1:\n%s", name, code, out.String())
		}
	}
	if code := runArchPair([]string{spec, base}, &out); code != 2 {
		t.Errorf("two files: exit %d, want 2", code)
	}
}
