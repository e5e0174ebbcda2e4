package deg

import (
	"testing"

	"archexplorer/internal/pipetrace"
)

// TestChainDropRules pins what a record's pipeline edges leave in a build:
// a hop runs from each present stage to the next, and it is kept unless F1,
// the first hop's tail, never happened or the hop would run backward in
// time; each dropped hop is counted. On crafted records, each over clear
// marks and over marks earlier skewed edges left, the marks, NumVertices,
// EdgesByKind, DroppedNoStamp and DroppedBackward must be as pinned. want
// spells the marks stage by stage, F1 first: '.' not listed, 'L' listed,
// 'P' listed and heading a kept hop (markPipe).
func TestChainDropRules(t *testing.T) {
	const no = pipetrace.NoStamp
	cases := []struct {
		name              string
		stamps            [pipetrace.NumStages]int64
		want              string
		noStamp, backward int
	}{
		{"every stage", [...]int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, "LPPPPPPPPP", 0, 0},
		{"M missing", [...]int64{0, 1, 2, 3, 4, 5, 6, no, 8, 9}, "LPPPPPP.PP", 0, 0},
		{"equal stamps", [...]int64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, "LPPPPPPPPP", 0, 0},
		{"only F1", [...]int64{3, no, no, no, no, no, no, no, no, no}, "..........", 0, 0},
		{"only C", [...]int64{no, no, no, no, no, no, no, no, no, 9}, "..........", 1, 0},
		{"F1 missing", [...]int64{no, 1, 2, 3, 4, 5, 6, 7, 8, 9}, ".LPPPPPPPP", 1, 0},
		{"F1 and M missing", [...]int64{no, 1, 2, 3, 4, 5, 6, no, 8, 9}, ".LPPPPP.PP", 1, 0},
		{"one backward stamp", [...]int64{0, 1, 2, 3, 4, 5, 3, 7, 8, 9}, "LPPPPPLPPP", 0, 1},
		{"backward across M", [...]int64{0, 1, 2, 3, 4, 5, 7, no, 6, 9}, "LPPPPPP.LP", 0, 1},
		{"backward then backward", [...]int64{0, 1, 2, 3, 4, 5, 3, 2, 8, 9}, "LPPPPP.LPP", 0, 2},
		{"backward last", [...]int64{0, 1, 2, 3, 4, 5, 6, 7, no, 2}, "LPPPPPPP..", 0, 1},
	}
	var earlier [pipetrace.NumStages]uint8
	earlier[pipetrace.SR], earlier[pipetrace.SI] = markListed|markEnd, markListed|markStart
	for _, c := range cases {
		for _, pre := range [][pipetrace.NumStages]uint8{{}, earlier} {
			marks := pre
			g := &Graph{}
			bd := builder{g: g, b: &buffers{mark: marks[:]}, recs: []pipetrace.Record{{Stamp: c.stamps}}}
			bd.chain(0)

			want, wantVertices := pre, 0
			var wantKinds [NumEdgeKinds]int
			for s, ch := range c.want {
				if ch != '.' {
					want[s] |= markListed
					if pre[s]&markListed == 0 {
						wantVertices++
					}
				}
				if ch == 'P' {
					want[s] |= markPipe
					wantKinds[EdgePipeline]++
				}
			}
			if marks != want || g.NumVertices != wantVertices || g.EdgesByKind != wantKinds ||
				g.DroppedNoStamp != c.noStamp || g.DroppedBackward != c.backward {
				t.Errorf("%s over marks %v: marks %v, %d vertices, edges %v, dropped %d no-stamp and %d backward; want %v, %d, %v, %d and %d",
					c.name, pre, marks, g.NumVertices, g.EdgesByKind, g.DroppedNoStamp, g.DroppedBackward,
					want, wantVertices, wantKinds, c.noStamp, c.backward)
			}
		}
	}
}
