package deg

import (
	"sort"
	"testing"

	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
)

// refSort is the explicit (time, VertexID) comparison the order keys must
// match.
func refSort(verts []VertexID, time func(VertexID) int64) []VertexID {
	out := append([]VertexID(nil), verts...)
	sort.Slice(out, func(i, j int) bool {
		ti, tj := time(out[i]), time(out[j])
		if ti != tj {
			return ti < tj
		}
		return out[i] < out[j]
	})
	return out
}

// xorshift is a tiny deterministic PRNG for synthetic vertex sets.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// keyOrder orders verts the way the graph build and the DP do — through a
// keyspace's order keys and the radix sort — reading vertex IDs as local to
// a graph over one more instruction than the largest sequence number. It
// also checks that every key decodes back to its vertex's stamp.
func keyOrder(t *testing.T, verts []VertexID, time func(VertexID) int64) []VertexID {
	t.Helper()
	nRecs := 1
	vs := make([]stamped, len(verts))
	for i, v := range verts {
		vs[i] = stamped{vcode(v.Seq(), v.Stage()), time(v)}
		nRecs = max(nRecs, v.Seq()+1)
	}
	ks := newKeyspace(nRecs, vs)
	var b buffers
	out := make([]VertexID, 0, len(verts))
	for _, k := range b.sortKeys(&ks, vs) {
		v := vertexOf(ks.code(k))
		if got := ks.time(k); got != time(v) {
			t.Fatalf("key of vertex %d decodes to stamp %d, want %d", v, got, time(v))
		}
		out = append(out, v)
	}
	return out
}

// checkOrder fails unless keyOrder and refSort agree on verts.
func checkOrder(t *testing.T, verts []VertexID, time func(VertexID) int64) {
	t.Helper()
	want := refSort(verts, time)
	got := keyOrder(t, verts, time)
	if len(got) != len(want) {
		t.Fatalf("ordered %d vertices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverges at %d: got v=%d t=%d, want v=%d t=%d",
				i, got[i], time(got[i]), want[i], time(want[i]))
		}
	}
}

// randomVerts draws n distinct vertex IDs below limit with stamps from
// stamp.
func randomVerts(rng *xorshift, n int, limit uint64, stamp func() int64) ([]VertexID, func(VertexID) int64) {
	verts := make([]VertexID, 0, n)
	times := make(map[VertexID]int64, n)
	for len(verts) < n {
		v := VertexID(rng.next() % limit)
		if _, dup := times[v]; dup {
			continue
		}
		times[v] = stamp()
		verts = append(verts, v)
	}
	return verts, func(v VertexID) int64 { return times[v] }
}

// TestTopoSortBeyond24Bits is the regression test for the old packing
// (time<<24 | id, unpacked with &0xffffff): vertex IDs at and past 1<<24
// were truncated, silently corrupting the topological order for traces
// beyond ~2M records. The fixture straddles the 24-bit boundary with
// colliding times so the truncation would both misorder and alias vertices.
func TestTopoSortBeyond24Bits(t *testing.T) {
	const n = 4096
	rng := xorshift(12345)
	verts := make([]VertexID, 0, n)
	times := make(map[VertexID]int64, n)
	for i := 0; i < n; i++ {
		// Half below the 24-bit boundary, half above it.
		v := VertexID(rng.next() % (1 << 23))
		if i%2 == 1 {
			v += 1 << 24
		}
		if _, dup := times[v]; dup {
			continue
		}
		// Few distinct times, so ties force ordering by vertex ID — the
		// axis the truncation corrupted.
		times[v] = int64(rng.next() % 7)
		verts = append(verts, v)
	}
	checkOrder(t, verts, func(v VertexID) int64 { return times[v] })
}

// TestTopoSortTimeOverflowFallback drives the stamps of one graph 2³²
// cycles or more apart, beyond the key's 32-bit time offset: the keyspace
// must fall back to ranking the stamps rather than corrupt the order.
func TestTopoSortTimeOverflowFallback(t *testing.T) {
	rng := xorshift(99)
	verts, time := randomVerts(&rng, 512, 1<<30, func() int64 {
		// Colliding stamps on both sides of the 32-bit span limit.
		return int64(rng.next()%3)<<32 + int64(rng.next()%5)
	})
	if ks := newKeyspace(1, []stamped{{0, 0}, {1, 1 << 32}}); ks.ranks == nil {
		t.Fatal("a 2^32-cycle span did not select the ranked keyspace")
	}
	checkOrder(t, verts, time)
}

// TestOrderKeysMatchRefSort checks the radix-sorted order keys against the
// comparison sort across the time shapes windows produce: spans narrower
// than the vertex count (many vertices per cycle), spans far wider than
// it, a handful of heavily tied stamps, stamps below zero, and a single
// vertex.
func TestOrderKeysMatchRefSort(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		limit uint64
		stamp func(rng *xorshift) int64
	}{
		{"dense", 4096, 1 << 16, func(rng *xorshift) int64 { return int64(rng.next() % 512) }},
		{"sparse", 4096, 1 << 16, func(rng *xorshift) int64 { return int64(rng.next() % (1 << 31)) }},
		{"ties", 4096, 1 << 20, func(rng *xorshift) int64 { return int64(rng.next() % 3) }},
		{"negative", 1024, 1 << 12, func(rng *xorshift) int64 { return int64(rng.next()%2000) - 1000 }},
		{"single", 1, 8, func(rng *xorshift) int64 { return 5 }},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := xorshift(1000 + i)
			verts, time := randomVerts(&rng, c.n, c.limit, func() int64 { return c.stamp(&rng) })
			checkOrder(t, verts, time)
		})
	}
}

// TestVirtualTargetsMatchBruteForce checks the Rule-1/Rule-2 target choice
// — a count of targets along the sorted order set, and Rule 2's lookup or
// the reference scan over a bounded range — against a direct scan of every
// target on random anchor sets: Rule 1 picks the first target after the
// anchor in (time, VertexID) order, Rule 2 the one closest in instruction
// sequence among the next scan targets, the earliest on ties. Targets start
// skewed edges, so they sit at R, I or P, as in a build. It also checks
// each anchor's rank, the count of anchors ordered before it, which keys
// the in-edge index.
func TestVirtualTargetsMatchBruteForce(t *testing.T) {
	rng := xorshift(7)
	for iter := 0; iter < 300; iter++ {
		const nRecs = 64
		span := []uint64{4, 100, 1 << 40}[iter%3]
		b := buffers{mark: make([]uint8, nRecs*pipetrace.NumStages), rank: make([]int32, nRecs*pipetrace.NumStages)}
		var vs, targets []stamped
		seen := make(map[uint64]bool)
		for n := 1 + int(rng.next()%200); len(vs) < n; {
			c := vcode(int(rng.next()%nRecs), pipetrace.Stage(rng.next()%uint64(pipetrace.NumStages)))
			if seen[c] {
				continue
			}
			seen[c] = true
			v := stamped{c, int64(rng.next() % span)}
			vs = append(vs, v)
			if st := vertexOf(c).Stage(); rng.next()%2 == 0 && (st == pipetrace.SR || st == pipetrace.SI || st == pipetrace.SP) {
				targets = append(targets, v)
				b.mark[vertexOf(c)] = markStart
			}
		}
		scan := 1 + int(rng.next()%8)
		ks := newKeyspace(nRecs, vs)
		rule1 := make([]int32, len(b.mark))
		b.virtualTargets(&ks, b.sortKeys(&ks, vs), rule1)
		if len(b.tkeys) != len(targets) {
			t.Fatalf("iter %d: %d targets, want %d", iter, len(b.tkeys), len(targets))
		}

		before := func(a, b stamped) bool {
			return a.t < b.t || (a.t == b.t && vertexOf(a.code) < vertexOf(b.code))
		}
		for _, a := range vs {
			var rank int32
			for _, c := range vs {
				if before(c, a) {
					rank++
				}
			}
			if got := b.rank[vertexOf(a.code)]; got != rank {
				t.Fatalf("iter %d: anchor %+v has rank %d, want %d", iter, a, got, rank)
			}
			var after []stamped
			for _, c := range targets {
				if before(a, c) {
					after = append(after, c)
				}
			}
			sort.Slice(after, func(i, j int) bool { return before(after[i], after[j]) })
			r1 := int(rule1[vertexOf(a.code)])
			if len(after) == 0 {
				if r1 != len(b.tkeys) {
					t.Fatalf("iter %d: anchor %+v has no later target, got r1=%d", iter, a, r1)
				}
				continue
			}
			seqDist := func(c stamped) int {
				d := vertexOf(a.code).Seq() - vertexOf(c.code).Seq()
				return max(d, -d)
			}
			closest := func(scan int) stamped {
				want := after[0]
				for _, c := range after[:min(scan, len(after))] {
					if seqDist(c) < seqDist(want) {
						want = c
					}
				}
				return want
			}
			if r1 == len(b.tkeys) {
				t.Fatalf("iter %d: anchor %+v: no Rule-1 target, want %+v", iter, a, after[0])
			}
			aseq := int32(a.code >> stageBits)
			for _, r2 := range []struct {
				scan int
				got  int
			}{{scan, refRule2(b.tseq, r1, aseq, scan)}, {maxVirtualScan, b.rule2(r1, aseq)}} {
				want2 := closest(r2.scan)
				got1, got2 := ks.code(b.tkeys[r1]), ks.code(b.tkeys[r2.got])
				if got1 != after[0].code || got2 != want2.code {
					t.Fatalf("iter %d (scan %d): anchor %+v: targets %d/%d, want %d/%d", iter, r2.scan, a,
						vertexOf(got1), vertexOf(got2), vertexOf(after[0].code), vertexOf(want2.code))
				}
			}
		}
	}
}

// TestMergeAbsoluteFieldsWeighted pins the documented Merge invariants: a
// merge of identical reports reproduces the report (not a sum), and for
// equal-length inputs Contrib[r] == DelayByRes[r]/L up to rounding.
func TestMergeAbsoluteFieldsWeighted(t *testing.T) {
	mk := func(l int64, delays map[uarch.Resource]int64) *Report {
		r := &Report{L: l}
		var attributed int64
		for res, d := range delays {
			r.DelayByRes[res] = d
			r.Contrib[res] = float64(d) / float64(l)
			r.EdgeCount[res] = 1
			attributed += d
		}
		r.Base = 1 - float64(attributed)/float64(l)
		return r
	}

	a := mk(1000, map[uarch.Resource]int64{uarch.ResROB: 300, uarch.ResIQ: 100})
	same, err := Merge([]*Report{a, a, a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.L != a.L {
		t.Fatalf("identical merge L = %d, want %d (sum bug)", same.L, a.L)
	}
	for _, res := range uarch.Resources() {
		if same.DelayByRes[res] != a.DelayByRes[res] {
			t.Fatalf("%s: identical merge delay %d, want %d", res, same.DelayByRes[res], a.DelayByRes[res])
		}
	}

	// Equal-length inputs with unequal weights: the ratio view must agree
	// with the Equation-2 view.
	b := mk(1000, map[uarch.Resource]int64{uarch.ResROB: 500, uarch.ResDCache: 200})
	m, err := Merge([]*Report{a, b}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range uarch.Resources() {
		wantContrib := 0.25*a.Contrib[res] + 0.75*b.Contrib[res]
		if d := m.Contrib[res] - wantContrib; d > 1e-12 || d < -1e-12 {
			t.Fatalf("%s: Contrib %v, want %v", res, m.Contrib[res], wantContrib)
		}
		ratio := float64(m.DelayByRes[res]) / float64(m.L)
		if d := ratio - wantContrib; d > 1e-3 || d < -1e-3 {
			t.Fatalf("%s: DelayByRes/L = %v inconsistent with Contrib %v", res, ratio, wantContrib)
		}
	}
	if m.L != 1000 {
		t.Fatalf("merged L = %d, want 1000", m.L)
	}
}
