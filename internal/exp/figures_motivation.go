package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"archexplorer/internal/mcpat"
	"archexplorer/internal/par"
	"archexplorer/internal/uarch"
	"archexplorer/internal/viz"
	"archexplorer/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "fig1",
		Paper: "Figure 1",
		Desc:  "Design-space PPA landscape for 458.sjeng, t-SNE projected to 2D",
		Run:   runFig1,
	})
	register(Experiment{
		Name:  "fig2",
		Paper: "Figure 2",
		Desc:  "Doubling each baseline parameter: Perf/Power/Area/PPA deltas",
		Run:   runFig2,
	})
	register(Experiment{
		Name:  "fig3",
		Paper: "Figure 3",
		Desc:  "Stepwise necessity-guided manual search from the baseline",
		Run:   runFig3,
	})
}

// evalOn evaluates one config on a suite, returning mean IPC, mean power,
// and area. The per-workload runs are independent, so they fan out under
// the given parallelism bound (0 defaults to GOMAXPROCS, 1 is sequential);
// the sums reduce in suite order, so the result is identical either way.
func evalOn(cfg uarch.Config, suite []workload.Profile, traceLen, parallelism int) (ipc, pow, area float64, err error) {
	type slot struct{ ipc, pow, area float64 }
	slots := make([]slot, len(suite))
	err = par.ForEach(len(suite), parallelism, func(i int) error {
		st, e := simulateStats(cfg, suite[i], traceLen)
		if e != nil {
			return e
		}
		pw, e := mcpat.Evaluate(cfg, st)
		if e != nil {
			return e
		}
		slots[i] = slot{ipc: st.IPC(), pow: pw.PowerW, area: pw.AreaMM2}
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	for _, s := range slots {
		ipc += s.ipc
		pow += s.pow
		area = s.area
	}
	n := float64(len(suite))
	return ipc / n, pow / n, area, nil
}

// runFig1 samples the design space, evaluates each point on 458.sjeng, and
// renders t-SNE-projected performance, power, and area landscapes.
func runFig1(o Options, w io.Writer) error {
	o = o.Defaults()
	wl, err := workload.ByName("458.sjeng")
	if err != nil {
		return err
	}
	s := uarch.StandardSpace()
	rng := rand.New(rand.NewSource(458))

	// The rng draw order defines the sample set, so draw every point up
	// front, then evaluate the samples concurrently into index-aligned
	// slots — the figures come out identical to the sequential loop.
	pts := make([]uarch.Point, o.Samples)
	for i := range pts {
		pts[i] = s.Random(rng)
	}
	feats := make([][]float64, o.Samples)
	perf := make([]float64, o.Samples)
	pow := make([]float64, o.Samples)
	area := make([]float64, o.Samples)
	err = par.ForEach(o.Samples, o.Parallelism, func(i int) error {
		cfg := s.Decode(pts[i])
		st, err := simulateStats(cfg, wl, o.TraceLen)
		if err != nil {
			return err
		}
		pwm, err := mcpat.Evaluate(cfg, st)
		if err != nil {
			return err
		}
		f := make([]float64, uarch.NumParams)
		for p := 0; p < uarch.NumParams; p++ {
			f[p] = float64(pts[i][p]) / float64(s.Levels(uarch.Param(p))-1)
		}
		feats[i] = f
		perf[i] = st.IPC()
		pow[i] = pwm.PowerW
		area[i] = pwm.AreaMM2
		return nil
	})
	if err != nil {
		return err
	}

	emb := viz.TSNE(feats, 15, 250, 1)
	xs := make([]float64, len(emb))
	ys := make([]float64, len(emb))
	for i, e := range emb {
		xs[i], ys[i] = e[0], e[1]
	}
	for _, panel := range []struct {
		name string
		vals []float64
	}{{"(a) performance (IPC)", perf}, {"(b) power (W)", pow}, {"(c) area (mm2)", area}} {
		glyphs := quantileGlyphs(panel.vals)
		fmt.Fprintf(w, "%s\n", viz.Scatter(xs, ys, glyphs, 64, 16,
			"Figure 1"+panel.name+"  [. low  - mid  + high  # top quartile]"))
	}
	fmt.Fprintf(w, "IPC range [%.3f, %.3f]; power range [%.3f, %.3f] W; area range [%.2f, %.2f] mm2\n",
		minOf(perf), maxOf(perf), minOf(pow), maxOf(pow), minOf(area), maxOf(area))
	return nil
}

func quantileGlyphs(vals []float64) []rune {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	q := func(f float64) float64 { return sorted[int(f*float64(len(sorted)-1))] }
	q1, q2, q3 := q(0.25), q(0.5), q(0.75)
	out := make([]rune, len(vals))
	for i, v := range vals {
		switch {
		case v <= q1:
			out[i] = '.'
		case v <= q2:
			out[i] = '-'
		case v <= q3:
			out[i] = '+'
		default:
			out[i] = '#'
		}
	}
	return out
}

func minOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(vs []float64) float64 {
	m := vs[0]
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// fig2Doublings lists the Table 1 components the paper doubles.
type doubling struct {
	name  string
	apply func(*uarch.Config)
}

func fig2Doublings() []doubling {
	return []doubling{
		{"ROB x2", func(c *uarch.Config) { c.ROBEntries *= 2 }},
		{"IQ x2", func(c *uarch.Config) { c.IQEntries *= 2 }},
		{"LQ x2", func(c *uarch.Config) { c.LQEntries *= 2 }},
		{"SQ x2", func(c *uarch.Config) { c.SQEntries *= 2 }},
		{"IntRF x2", func(c *uarch.Config) { c.IntRF *= 2 }},
		{"FpRF x2", func(c *uarch.Config) { c.FpRF *= 2 }},
		{"IntALU x2", func(c *uarch.Config) { c.IntALU *= 2 }},
		{"FpALU x2", func(c *uarch.Config) { c.FpALU *= 2 }},
		{"FetchQ x2", func(c *uarch.Config) { c.FetchQueueUops *= 2 }},
		{"BTB x2", func(c *uarch.Config) { c.BTBEntries *= 2 }},
	}
}

// runFig2 reproduces the doubling experiment: each bar is the percentage
// change versus the baseline when one component is doubled. The paper's
// headline observations: doubling IntRF lifts performance ~23% and the PPA
// trade-off ~27%, while doubling FpALU only costs power and area.
func runFig2(o Options, w io.Writer) error {
	o = o.Defaults()
	suite := workload.Suite17()
	if o.Fast {
		suite = suite[:6]
	}
	base := uarch.Baseline()
	bIPC, bPow, bArea, err := evalOn(base, suite, o.TraceLen, o.Parallelism)
	if err != nil {
		return err
	}
	bPPA := mcpat.PPA(bIPC, bPow, bArea)

	// The doublings are independent one-off evaluations; fan them out and
	// reduce in definition order. Each evalOn already fans its workloads
	// out — both semaphores are private, so nesting cannot deadlock.
	ds := fig2Doublings()
	type delta struct{ perf, pow, area, ppa float64 }
	deltas := make([]delta, len(ds))
	err = par.ForEach(len(ds), len(ds), func(i int) error {
		cfg := base
		ds[i].apply(&cfg)
		ipc, pow, area, err := evalOn(cfg, suite, o.TraceLen, o.Parallelism)
		if err != nil {
			return err
		}
		deltas[i] = delta{
			perf: 100 * (ipc - bIPC) / bIPC,
			pow:  100 * (pow - bPow) / bPow,
			area: 100 * (area - bArea) / bArea,
			ppa:  100 * (mcpat.PPA(ipc, pow, area) - bPPA) / bPPA,
		}
		return nil
	})
	if err != nil {
		return err
	}
	var labels []string
	var dPerf, dPow, dArea, dPPA []float64
	for i, d := range ds {
		labels = append(labels, d.name)
		dPerf = append(dPerf, deltas[i].perf)
		dPow = append(dPow, deltas[i].pow)
		dArea = append(dArea, deltas[i].area)
		dPPA = append(dPPA, deltas[i].ppa)
	}

	fmt.Fprintf(w, "Figure 2: doubling one component of the Table 1 baseline (%% change)\n\n")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %12s\n", "component", "perf%", "power%", "area%", "Perf2/(PxA)%")
	for i := range labels {
		fmt.Fprintf(w, "%-10s %8.2f%% %8.2f%% %8.2f%% %11.2f%%\n",
			labels[i], dPerf[i], dPow[i], dArea[i], dPPA[i])
	}
	fmt.Fprintf(w, "\n%s", viz.Bars(labels, dPPA, 40, "PPA trade-off change per doubling"))
	return nil
}

// runFig3 reproduces the stepwise heuristic search: necessity (the share of
// instructions stalled at rename for each resource) guides increasing the
// top-ranked resource and reclaiming zero-necessity ones, six simulations
// total.
func runFig3(o Options, w io.Writer) error {
	o = o.Defaults()
	suite := workload.Suite17()
	if o.Fast {
		suite = suite[:6]
	}
	s := uarch.StandardSpace()
	pt := s.Nearest(uarch.Baseline())

	b0 := s.Decode(pt)
	ipc0, pow0, area0, err := evalOn(b0, suite, o.TraceLen, o.Parallelism)
	if err != nil {
		return err
	}
	ppa0 := mcpat.PPA(ipc0, pow0, area0)
	fmt.Fprintf(w, "Figure 3: stepwise necessity-guided search (6 steps)\n\n")
	fmt.Fprintf(w, "step 0 (baseline): IPC=%.4f power=%.4f area=%.3f PPA=%.4f\n", ipc0, pow0, area0, ppa0)

	grown := map[uarch.Resource]bool{}
	shrunk := map[uarch.Resource]bool{}
	for step := 1; step <= 6; step++ {
		// Measure necessity on one representative workload.
		cfg := s.Decode(pt)
		st, err := simulateStats(cfg, suite[0], o.TraceLen)
		if err != nil {
			return err
		}
		type nec struct {
			res   uarch.Resource
			ratio float64
		}
		var necs []nec
		for _, res := range uarch.Resources() {
			if n := st.RenameStalls[res]; n > 0 {
				necs = append(necs, nec{res, float64(n) / float64(st.Committed)})
			}
		}
		sort.Slice(necs, func(i, j int) bool { return necs[i].ratio > necs[j].ratio })

		// One adjustment per simulation, as in the paper's six-step walk:
		// grow the top-necessity resource when it is clearly starved,
		// otherwise reclaim one still-untouched zero-stall structure.
		moved := false
		if len(necs) > 0 && necs[0].ratio > 0.10 && !shrunk[necs[0].res] {
			for _, p := range uarch.ResourceParams(necs[0].res) {
				if s.Step(&pt, p, 1) {
					grown[necs[0].res] = true
					moved = true
					break
				}
			}
		}
		if !moved {
			seen := map[uarch.Resource]bool{}
			for _, n := range necs {
				seen[n.res] = true
			}
			for _, res := range []uarch.Resource{uarch.ResFpRF, uarch.ResSQ, uarch.ResLQ, uarch.ResIQ, uarch.ResROB} {
				if seen[res] || grown[res] || shrunk[res] {
					continue
				}
				for _, p := range uarch.ResourceParams(res) {
					if s.Step(&pt, p, -1) {
						shrunk[res] = true
						moved = true
						break
					}
				}
				if moved {
					break
				}
			}
		}

		cfg = s.Decode(pt)
		ipc, pow, area, err := evalOn(cfg, suite, o.TraceLen, o.Parallelism)
		if err != nil {
			return err
		}
		ppa := mcpat.PPA(ipc, pow, area)
		top := "-"
		if len(necs) > 0 {
			top = fmt.Sprintf("%s %.1f%%", necs[0].res, 100*necs[0].ratio)
		}
		fmt.Fprintf(w, "step %d: IPC=%.4f (%+.2f%%) power=%.4f (%+.2f%%) area=%.3f (%+.2f%%) PPA=%.4f (%+.2f%%)  top necessity: %s\n",
			step, ipc, 100*(ipc-ipc0)/ipc0, pow, 100*(pow-pow0)/pow0,
			area, 100*(area-area0)/area0, ppa, 100*(ppa-ppa0)/ppa0, top)
	}
	return nil
}
