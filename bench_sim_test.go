// Simulator hot-path benchmarks: the bench-sim / profile-sim Makefile
// targets run exactly these. BenchmarkSimFull measures the steady-state DSE
// configuration — pooled trace storage and recycled cores, all DEG
// annotations recorded. BenchmarkSimStats is the same run stats-only, as
// every evaluation without DEG runs it. BenchmarkSimProbe is the
// simulation work of explore probes, where core construction costs as
// much as the run. BENCH_sim.json records the before/after numbers of
// each rewrite.
//
//	make bench-sim       # all three benchmarks, -benchmem
//	make profile-sim     # CPU profile of all three at -cpu 1 → sim.pprof
package archexplorer

import (
	"context"
	"math/rand"
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/ooo"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// benchStream is the 20k-instruction 458.sjeng prefix every simulator
// benchmark runs over.
func benchStream(b *testing.B) []isa.Inst {
	b.Helper()
	p, err := workload.ByName("458.sjeng")
	if err != nil {
		b.Fatal(err)
	}
	stream, err := workload.CachedTrace(p, 20000)
	if err != nil {
		b.Fatal(err)
	}
	return stream
}

// BenchmarkSimFull is the steady-state full-fidelity simulation: trace
// buffers and cores recycle through their pools, and every record carries
// its annotations inline.
func BenchmarkSimFull(b *testing.B) {
	stream := benchStream(b)
	cfg := uarch.Baseline()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := ooo.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr, _, err := core.Run(stream)
		if err != nil {
			b.Fatal(err)
		}
		tr.Release()
		core.Release()
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimStats is BenchmarkSimFull's stream and config through
// RunStats: no trace is kept, and the ROB, LQ and rename pools run as
// release-order rings.
func BenchmarkSimStats(b *testing.B) {
	stream := benchStream(b)
	cfg := uarch.Baseline()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core, err := ooo.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RunStats(ctx, stream); err != nil {
			b.Fatal(err)
		}
		core.Release()
	}
	b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// probeConfigs is the number of seeded StandardSpace design points
// BenchmarkSimProbe cycles through, so cores are recycled across
// different shapes as in a campaign.
const probeConfigs = 4

// BenchmarkSimProbe is the simulation work of explore probes: New, an
// annotated Run and Release per simulation, over 500-instruction traces of
// the 12 SPEC06 workloads, for each of probeConfigs seeded design points.
// One op is all 12 x probeConfigs simulations.
func BenchmarkSimProbe(b *testing.B) {
	const n = 500
	var streams [][]isa.Inst
	for _, p := range workload.Suite06() {
		stream, err := workload.CachedTrace(p, n)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, stream)
	}
	space := uarch.StandardSpace()
	rng := rand.New(rand.NewSource(1))
	cfgs := make([]uarch.Config, probeConfigs)
	for i := range cfgs {
		cfgs[i] = space.Decode(space.Random(rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			for _, stream := range streams {
				core, err := ooo.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				var tr *pipetrace.Trace
				if tr, _, err = core.Run(stream); err != nil {
					b.Fatal(err)
				}
				tr.Release()
				core.Release()
			}
		}
	}
	reportInstRate(b, n*len(streams)*len(cfgs))
}
