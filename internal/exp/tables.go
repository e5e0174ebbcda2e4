package exp

import (
	"fmt"
	"io"

	"archexplorer/internal/mcpat"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

func init() {
	register(Experiment{
		Name:  "table1",
		Paper: "Table 1",
		Desc:  "Baseline microarchitecture specification and its measured IPC/Power/Area",
		Run:   runTable1,
	})
	register(Experiment{
		Name:  "table3",
		Paper: "Table 3",
		Desc:  "Workload suites with dynamic instruction-mix statistics",
		Run:   runTable3,
	})
	register(Experiment{
		Name:  "table4",
		Paper: "Table 4",
		Desc:  "Microarchitecture design-space specification and size",
		Run:   runTable4,
	})
}

// runTable1 reproduces Table 1: the baseline specification plus measured
// average IPC, power, and area over the SPEC17-like suite (the paper
// evaluates the baseline with SPEC CPU2017 Simpoints).
func runTable1(o Options, w io.Writer) error {
	o = o.Defaults()
	cfg := uarch.Baseline()
	fmt.Fprintf(w, "Table 1: baseline microarchitecture specification\n\n")
	fmt.Fprintf(w, "  Pipeline width               %d\n", cfg.Width)
	fmt.Fprintf(w, "  Fetch buffer (bytes)         %d\n", cfg.FetchBufBytes)
	fmt.Fprintf(w, "  Fetch queue (uops)           %d\n", cfg.FetchQueueUops)
	fmt.Fprintf(w, "  Branch predictor (l/g/c)     %d/%d/%d  RAS %d  BTB %d\n",
		cfg.LocalPredictor, cfg.GlobalPredictor, cfg.GlobalPredictor, cfg.RASEntries, cfg.BTBEntries)
	fmt.Fprintf(w, "  ROB/IQ/LQ/SQ                 %d/%d/%d/%d\n",
		cfg.ROBEntries, cfg.IQEntries, cfg.LQEntries, cfg.SQEntries)
	fmt.Fprintf(w, "  Int RF / Fp RF               %d / %d\n", cfg.IntRF, cfg.FpRF)
	fmt.Fprintf(w, "  FUs (ALU/MulDiv/FpALU/FpMD)  %d/%d/%d/%d  RdWrPort %d\n",
		cfg.IntALU, cfg.IntMultDiv, cfg.FpALU, cfg.FpMultDiv, cfg.RdWrPorts)
	fmt.Fprintf(w, "  L1 I$/D$                     %d-way %dKB / %d-way %dKB\n\n",
		cfg.ICacheAssoc, cfg.ICacheKB, cfg.DCacheAssoc, cfg.DCacheKB)

	var ipcSum, powSum, area float64
	suite := workload.Suite17()
	for _, wl := range suite {
		st, err := simulateStats(cfg, wl, o.TraceLen)
		if err != nil {
			return err
		}
		pw, err := mcpat.Evaluate(cfg, st)
		if err != nil {
			return err
		}
		ipcSum += st.IPC()
		powSum += pw.PowerW
		area = pw.AreaMM2
	}
	n := float64(len(suite))
	fmt.Fprintf(w, "  measured (this repro):  IPC %.4f   Power %.4f W   Area %.4f mm2\n",
		ipcSum/n, powSum/n, area)
	fmt.Fprintf(w, "  paper (gem5+McPAT):     IPC 0.9418  Power 0.2027 W  Area 5.6609 mm2\n")
	return nil
}

// runTable3 reproduces Table 3 with the synthetic workloads' measured
// dynamic characteristics.
func runTable3(o Options, w io.Writer) error {
	o = o.Defaults()
	fmt.Fprintf(w, "Table 3: workloads used for evaluation\n\n")
	fmt.Fprintf(w, "%-18s %-7s %6s %6s %6s %6s %6s %6s\n",
		"workload", "suite", "%load", "%store", "%br", "%fp", "%mul", "taken")
	for _, p := range workload.All() {
		tr, err := workload.CachedTrace(p, o.TraceLen)
		if err != nil {
			return err
		}
		m := workload.Mix(tr)
		tot := float64(m.Total)
		taken := 0.0
		if m.Branches > 0 {
			taken = float64(m.TakenBranches) / float64(m.Branches)
		}
		fmt.Fprintf(w, "%-18s %-7s %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%% %5.1f%%\n",
			p.Name, p.Suite,
			100*float64(m.Loads)/tot, 100*float64(m.Stores)/tot,
			100*float64(m.Branches)/tot,
			100*float64(m.FpAlu+m.FpMul+m.FpDiv)/tot,
			100*float64(m.IntMul+m.IntDiv)/tot,
			100*taken)
	}
	fmt.Fprintf(w, "\nSPEC06-like: %d workloads, SPEC17-like: %d workloads\n",
		len(workload.Suite06()), len(workload.Suite17()))
	return nil
}

// runTable4 reproduces Table 4: every swept parameter with its candidate
// values and the total design-space size (paper: 8.9649e14).
func runTable4(_ Options, w io.Writer) error {
	s := uarch.StandardSpace()
	fmt.Fprintf(w, "Table 4: microarchitecture design space specification\n\n")
	for p := uarch.Param(0); p < uarch.Param(uarch.NumParams); p++ {
		vs := s.Values(p)
		fmt.Fprintf(w, "  %-12s (%2d values)  %v\n", p, len(vs), vs)
	}
	fmt.Fprintf(w, "\n  total size: %.4e design points\n  (paper states 8.9649e14; its Table 4 ranges multiply to ~1.07e15 — this repo follows the ranges)\n", s.Size())
	return nil
}
