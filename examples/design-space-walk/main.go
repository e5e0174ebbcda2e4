// Design-space walk example: the Section 2 motivation experiments in
// runnable form. First the Figure 2 doubling study — which single
// component doubles are worth their power and area — and then a
// bottleneck-guided improvement of the baseline using the DEG report, as
// in Figure 3/10.
package main

import (
	"context"
	"fmt"
	"log"

	"archexplorer/internal/dse"
	"archexplorer/internal/mcpat"
	"archexplorer/internal/ooo"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

func evalMean(cfg uarch.Config, suite []workload.Profile, n int) (ipc, pow, area float64) {
	for _, wl := range suite {
		stream, err := workload.CachedTrace(wl, n)
		if err != nil {
			log.Fatal(err)
		}
		core, err := ooo.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		st, err := core.RunStats(context.Background(), stream)
		if err != nil {
			log.Fatal(err)
		}
		core.Release()
		pw, err := mcpat.Evaluate(cfg, st)
		if err != nil {
			log.Fatal(err)
		}
		ipc += st.IPC()
		pow += pw.PowerW
		area = pw.AreaMM2
	}
	k := float64(len(suite))
	return ipc / k, pow / k, area
}

func main() {
	suite := workload.Suite17()[:6]
	base := uarch.Baseline()
	bIPC, bPow, bArea := evalMean(base, suite, 6000)
	bPPA := mcpat.PPA(bIPC, bPow, bArea)
	fmt.Printf("baseline: IPC %.4f  power %.4f W  area %.3f mm2  PPA %.4f\n\n", bIPC, bPow, bArea, bPPA)

	fmt.Println("doubling study (Figure 2):")
	for _, d := range []struct {
		name  string
		apply func(*uarch.Config)
	}{
		{"IntRF x2", func(c *uarch.Config) { c.IntRF *= 2 }},
		{"ROB   x2", func(c *uarch.Config) { c.ROBEntries *= 2 }},
		{"FpALU x2", func(c *uarch.Config) { c.FpALU *= 2 }},
		{"SQ    x2", func(c *uarch.Config) { c.SQEntries *= 2 }},
	} {
		cfg := base
		d.apply(&cfg)
		ipc, pow, area := evalMean(cfg, suite, 6000)
		ppa := mcpat.PPA(ipc, pow, area)
		fmt.Printf("  %-9s perf %+6.2f%%  power %+6.2f%%  area %+6.2f%%  PPA %+6.2f%%\n",
			d.name, 100*(ipc-bIPC)/bIPC, 100*(pow-bPow)/bPow,
			100*(area-bArea)/bArea, 100*(ppa-bPPA)/bPPA)
	}

	// Bottleneck-guided walk from the baseline (Figure 3/10 flavour).
	fmt.Println("\nbottleneck-guided walk (Figure 3/10):")
	ev := dse.NewEvaluator(uarch.StandardSpace(), suite, 6000)
	pt := ev.Space.Nearest(base)
	for step := 0; step < 5; step++ {
		e, err := ev.Probe(pt)
		if err != nil {
			log.Fatal(err)
		}
		top := e.Report.Top()
		topName := "none"
		if len(top) > 0 {
			topName = fmt.Sprintf("%s (%.1f%%)", top[0], 100*e.Report.Contrib[top[0]])
		}
		fmt.Printf("  step %d: tradeoff %.4f, top bottleneck %s\n", step, e.Tradeoff(), topName)
		moved := false
		for _, res := range top {
			for _, p := range uarch.ResourceParams(res) {
				if ev.Space.Step(&pt, p, 1) {
					moved = true
					break
				}
			}
			if moved {
				break
			}
		}
		if !moved {
			break
		}
	}
}
