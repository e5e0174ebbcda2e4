package deg

import (
	"math"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/workload"
)

// refRule2 is Rule 2 written as a plain scan, the reference the lookup
// (buffers.rule2) is held to: among the scan targets from r1 on, the one
// closest to the anchor's instruction aseq in sequence, the earliest on
// ties — so the scan stops at the first distance of zero.
func refRule2(tseq []int32, r1 int, aseq int32, scan int) int {
	r2, best := r1, int32(math.MaxInt32)
	for i, s := range tseq[r1:min(r1+scan, len(tseq))] {
		d := s - aseq
		d = (d ^ d>>31) - d>>31 // |d|, without a branch
		if d < best {
			r2, best = r1+i, d
		}
		if best == 0 {
			break
		}
	}
	return r2
}

// checkRule2 compares the lookup with the reference scan for every anchor
// of the buffers' last virtualTargets call, whose Rule-1 targets are in
// rule1, and returns the number of anchors compared.
func checkRule2(t testing.TB, b *buffers, ks *keyspace, rule1 []int32) int {
	t.Helper()
	n := 0
	for _, key := range b.keys {
		c := ks.code(key)
		r1 := int(rule1[vertexOf(c)])
		if r1 == len(b.tkeys) {
			continue
		}
		aseq := int32(c >> stageBits)
		got, want := b.rule2(r1, aseq), refRule2(b.tseq, r1, aseq, maxVirtualScan)
		if got != want {
			t.Fatalf("anchor seq %d stage %s, r1 %d of %d targets: lookup picks %d (seq %d), scan %d (seq %d)",
				aseq, pipetrace.Stage(c&(1<<stageBits-1)), r1, len(b.tkeys), got, b.tseq[got], want, b.tseq[want])
		}
		n++
	}
	return n
}

// FuzzRule2Lookup holds Rule 2's lookup to the reference scan on random
// anchor sets over nRecs instructions. Each instruction may hold an anchor
// at F1, R, I and P, with probability density/256; one at R, I or P starts
// a skewed edge, a target, half the time. Every slot of the lookup table
// is then a candidate, and on a dense layout each distance ties between
// the two sides and the three stages of an instruction. Stamps rise by
// slope per instruction plus a jitter below span+1, so a small span keeps
// the target order close to sequence order and a large one shuffles it.
// The first and the last instruction always hold an anchor, and the
// anchors late in key order see a scan range cut short by the end of the
// targets.
func FuzzRule2Lookup(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(128), uint8(1), uint8(4))
	f.Add(uint64(2), uint8(199), uint8(255), uint8(0), uint8(0))  // every slot an anchor, one stamp
	f.Add(uint64(3), uint8(0), uint8(255), uint8(1), uint8(2))    // one instruction
	f.Add(uint64(4), uint8(120), uint8(40), uint8(2), uint8(255)) // sparse, shuffled
	f.Add(uint64(5), uint8(255), uint8(200), uint8(0), uint8(9))  // more than 64 targets per range
	f.Fuzz(func(t *testing.T, seed uint64, n, density, slope, span uint8) {
		nRecs := 1 + int(n)
		rng := xorshift(seed | 1)
		b := buffers{mark: make([]uint8, nRecs*pipetrace.NumStages), rank: make([]int32, nRecs*pipetrace.NumStages)}
		var vs []stamped
		for seq := range nRecs {
			for _, st := range [...]pipetrace.Stage{pipetrace.SF1, pipetrace.SR, pipetrace.SI, pipetrace.SP} {
				edge := st == pipetrace.SF1 && (seq == 0 || seq == nRecs-1)
				if !edge && rng.next()%256 >= uint64(density) {
					continue
				}
				role := markEnd
				if st != pipetrace.SF1 && rng.next()%2 == 0 {
					role = markStart
				}
				b.mark[Vertex(seq, st)] = role
				vs = append(vs, stamped{vcode(seq, st), int64(seq)*int64(slope) + int64(rng.next()%(uint64(span)+1))})
			}
		}
		ks := newKeyspace(nRecs, vs)
		rule1 := make([]int32, len(b.mark))
		b.virtualTargets(&ks, b.sortKeys(&ks, vs), rule1)
		checkRule2(t, &b, &ks, rule1)
	})
}

// TestRule2LookupOnTraces holds Rule 2's lookup to the reference scan on
// every anchor of simulator output: every workload of both suites at the
// golden design points, whole-trace and in a window with its margins.
func TestRule2LookupOnTraces(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 500
	}
	var b buffers
	anchors := 0
	for _, c := range goldenConfigs() {
		for _, p := range append(workload.Suite06(), workload.Suite17()...) {
			tr := traceFor(t, c.cfg, p.Name, n)
			for _, r := range [][2]int{{0, n}, {n / 4, 3 * n / 4}} {
				var g Graph
				if err := buildInto(&g, tr, r[0], r[1], &b); err != nil {
					t.Fatal(err)
				}
				// The build leaves each anchor's Rule-1 target in the parent
				// table until the DP runs.
				anchors += checkRule2(t, &b, &g.ks, b.parent)
			}
		}
	}
	t.Logf("%d anchors agree", anchors)
}
