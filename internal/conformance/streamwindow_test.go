package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"archexplorer/internal/deg"
	"archexplorer/internal/ooo"
)

// TestStreamWindowedAcrossWindows drives the deg-stream oracle beyond the
// corpus's quarter-trace window, on a capacity-floor corner: a window far
// below the reorder margin, one ROB wide, one short of the whole trace, and
// the whole trace. At every size the streamed 4-worker analysis must
// reproduce the sequential AnalyzeWindowed report and stats of the
// reference trace exactly.
func TestStreamWindowedAcrossWindows(t *testing.T) {
	st := stream(t, "429.mcf", 800)
	cfg := EdgeConfigs()[0]
	core, err := ooo.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := core.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Release()
	for _, window := range []int{7, cfg.ROBEntries, len(st) - 1, len(st)} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			opt := deg.WindowOptions{Window: window, ReorderWindow: cfg.ROBEntries}
			var want windowed
			var err error
			if want.rep, want.st, err = deg.AnalyzeWindowed(tr, opt); err != nil {
				t.Fatal(err)
			}
			opt.Workers = 4
			got, err := streamWindowed(cfg, st, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streamed analysis diverged from sequential:\nwant %+v %+v\ngot  %+v %+v",
					want.rep, want.st, got.rep, got.st)
			}
		})
	}
}
