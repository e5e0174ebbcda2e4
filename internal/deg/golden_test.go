package deg

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// goldenPins are FNV-1a fingerprints of the DEG analysis of every bundled
// workload, one per (design point, trace length). They were captured before
// the graph builder and the longest-path DP were rewritten without maps or
// comparison sorts. The windowed-vs-whole-trace and stream-vs-windowed
// oracles compare new code with new code; these pins also catch a rewrite
// that shifts both sides of such a comparison together. A deliberate model
// change re-pins them; a refactor never may.
var goldenPins = map[string]uint64{
	"baseline/4000": 0xd91d79dc170d56bc,
	"baseline/500":  0xe6e8e95f67ad86aa,
	"ceiling/4000":  0x592efce5ac02df3b,
	"ceiling/500":   0x837c8b40143f7940,
	"floor/4000":    0xfbcfb369a08c6fbf,
	"floor/500":     0x9d04a7b51fdbbd19,
	"mid/4000":      0x9474468ef2144be7,
	"mid/500":       0x691dc13f2c502ff7,
}

type goldenConfig struct {
	name string
	cfg  uarch.Config
}

// goldenConfigs are the pinned design points: the baseline, the
// smallest-capacity corner of the Table 4 space (every width, pool and
// queue at its floor, where resource and virtual edges are densest), its
// largest corner, and its midpoint.
func goldenConfigs() []goldenConfig {
	space := uarch.StandardSpace()
	var floor, ceiling, mid uarch.Point
	for p := uarch.Param(0); int(p) < uarch.NumParams; p++ {
		ceiling[p] = space.Levels(p) - 1
		mid[p] = space.Levels(p) / 2
	}
	return []goldenConfig{
		{"baseline", uarch.Baseline()},
		{"floor", space.Decode(floor)},
		{"ceiling", space.Decode(ceiling)},
		{"mid", space.Decode(mid)},
	}
}

// appendEdge appends e's fields in a fixed little-endian layout.
func appendEdge(buf []byte, e Edge) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(e.To))
	buf = append(buf, byte(e.Kind), byte(e.Res))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Delay))
	return binary.LittleEndian.AppendUint64(buf, uint64(e.Cost))
}

// foldGolden hashes one trace's whole-trace analysis (the Report, the
// graph's statistics, every edge in order, and the critical path's vertices
// and edges) plus its Window-1000 windowed report and stats.
func foldGolden(t *testing.T, h hash.Hash64, tr *pipetrace.Trace) {
	t.Helper()
	rep, g, cp, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "%+v\n%v anchors=%d verts=%d edges=%d drop=%d/%d clip=%d\n",
		*rep, g.EdgesByKind, g.SkewedAnchors, g.NumVertices, g.NumEdges(),
		g.DroppedNoStamp, g.DroppedBackward, g.ClippedDeps)
	var buf []byte
	for _, e := range g.Edges() {
		buf = appendEdge(buf, e)
	}
	h.Write(buf)
	fmt.Fprintf(h, "path cost=%d span=%d %v\n", cp.Cost, cp.Span, cp.Vertices)
	buf = buf[:0]
	for _, e := range cp.Edges {
		buf = appendEdge(buf, e)
	}
	h.Write(buf)

	wrep, wst, err := AnalyzeWindowed(tr, WindowOptions{Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(h, "window %+v\n%+v\n", *wrep, *wst)
}

// TestGoldenAnalysisPins checks every workload × pinned design point ×
// {500, 4000} instructions against goldenPins. On a mismatch it prints the
// full table of current fingerprints.
func TestGoldenAnalysisPins(t *testing.T) {
	got := make(map[string]uint64)
	for _, c := range goldenConfigs() {
		if err := c.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, n := range []int{500, 4000} {
			h := fnv.New64a()
			for _, p := range workload.All() {
				fmt.Fprintf(h, "%s\n", p.Name)
				foldGolden(t, h, traceFor(t, c.cfg, p.Name, n))
			}
			got[fmt.Sprintf("%s/%d", c.name, n)] = h.Sum64()
		}
	}
	var moved []string
	for k, v := range got {
		if goldenPins[k] != v {
			moved = append(moved, k)
		}
	}
	if len(moved) == 0 && len(goldenPins) == len(got) {
		return
	}
	sort.Strings(moved)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %#x,\n", k, got[k])
	}
	t.Fatalf("DEG analysis fingerprints moved for %v; current values:\n%s", moved, table.String())
}
