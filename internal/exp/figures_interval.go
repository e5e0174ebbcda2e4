package exp

import (
	"fmt"
	"io"

	"archexplorer/internal/deg"
	"archexplorer/internal/interval"
	"archexplorer/internal/uarch"
)

func init() {
	register(Experiment{
		Name:  "cpistack",
		Paper: "Section 2.3",
		Desc:  "Interval (stall) analysis versus critical-path bottleneck attribution",
		Run:   runCPIStack,
	})
}

// runCPIStack contrasts the classic per-cycle stall accounting with the
// DEG's critical-path attribution on the same executions. The paper's
// Section 2.3 argument is visible directly: interval analysis blames the
// symptom at the ROB head (e.g. "memory"), while the critical path blames
// the resource whose shortage keeps those latencies from overlapping
// (e.g. the integer register file that caps the instruction window).
func runCPIStack(o Options, w io.Writer) error {
	o = o.Defaults()
	cfg := uarch.Baseline()
	names := []string{"458.sjeng", "429.mcf", "444.namd", "462.libquantum"}
	if o.Fast {
		names = names[:2]
	}
	for _, name := range names {
		wl, err := lookup(name)
		if err != nil {
			return err
		}
		tr, err := simulate(cfg, wl, o.TraceLen)
		if err != nil {
			return err
		}
		stack, err := interval.Analyze(tr)
		if err != nil {
			return err
		}
		rep, _, _, err := deg.Analyze(tr, deg.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "== %s ==\n", name)
		fmt.Fprintf(w, "interval analysis (per-cycle head-of-ROB accounting):\n%s\n", stack)
		fmt.Fprintf(w, "critical-path bottleneck attribution (this paper's method):\n%s\n", rep)
	}
	return nil
}
