package ooo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"archexplorer/internal/isa"
	"archexplorer/internal/pipetrace"
	"archexplorer/internal/uarch"
	"archexplorer/internal/workload"
)

// fresh builds a core that has never been through the pool: the reset of
// an empty Core, which is what New does when the pool is empty.
func fresh(t testing.TB, cfg uarch.Config) *Core {
	t.Helper()
	c := new(Core)
	if err := c.reset(cfg); err != nil {
		t.Fatal(err)
	}
	return c
}

// renew recycles c for cfg as New does for a released core, without the
// pool: the pool may hand New a different core, and a lineage must stay on
// one core to cover each transition deterministically.
func renew(t testing.TB, c *Core, cfg uarch.Config) {
	t.Helper()
	if err := c.reset(cfg); err != nil {
		t.Fatal(err)
	}
}

// recycle releases c and returns New(cfg), which normally hands c back
// reset; the pool may instead return another released core or a fresh
// one, and every one of them must behave the same.
func recycle(t testing.TB, c *Core, cfg uarch.Config) *Core {
	t.Helper()
	c.Release()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// chaseStream is a pointer chase of loads that all miss to DRAM, with an
// independent FP op ahead of every three loads. Each load issues a DRAM
// round trip after the previous one while the FP ops issue as soon as they
// dispatch, so live issue cycles spread past a 4096-slot ring: on
// chaseConfig's 32-entry ROB the issue ring must grow.
func chaseStream(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	addr := uint64(1 << 30)
	for i := range out {
		in := isa.Inst{PC: 0x1000 + 4*uint64(i%64), Src1: isa.InvalidReg, Src2: isa.InvalidReg}
		if i%4 == 0 {
			in.Class, in.Dest = isa.OpFpAlu, isa.FpReg(2)
		} else {
			in.Class, in.Src1, in.Dest = isa.OpLoad, isa.IntReg(1), isa.IntReg(1)
			in.Addr, in.Size = addr, 8
			addr += 1 << 20 // a new line every time: no reuse, no prefetch hit
		}
		out[i] = in
	}
	return out
}

// chaseConfig is the config chaseStream grows the issue ring on: the
// smallest ring (ROB 32, fetch queue 8), with rename registers and queues
// large enough that the ROB alone bounds the loads in flight.
func chaseConfig() uarch.Config {
	cfg := uarch.Baseline()
	cfg.ROBEntries, cfg.FetchQueueUops, cfg.Width = 32, 8, 8
	cfg.IntRF, cfg.FpRF = 304, 304
	cfg.IQEntries, cfg.LQEntries, cfg.SQEntries = 80, 48, 48
	return cfg
}

// engine selects what a lineage step runs.
type engine int

const (
	engineRun engine = iota
	engineStream
	engineStreamFail // RunStream whose sink fails on the second chunk
	engineStats      // RunStats: ring-mode pools, no trace
	numEngines
)

func (e engine) String() string {
	return [...]string{"run", "stream", "stream-fail", "stats"}[e]
}

var errSinkFailed = errors.New("sink failed")

// runFingerprint runs stream on c with engine e and fingerprints the
// output: Fingerprint for Run, ChunkedFingerprint for the streams, and
// for RunStats ChunkedFingerprint over no records. A failed stream
// fingerprints the chunks it delivered before the failure, under zero
// cycles and Stats.
func runFingerprint(t testing.TB, c *Core, stream []isa.Inst, e engine) uint64 {
	t.Helper()
	switch e {
	case engineStats:
		st, err := c.RunStats(context.Background(), stream)
		if err != nil {
			t.Fatal(err)
		}
		return statsFingerprint(st)
	case engineRun:
		tr, st, err := c.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Release()
		return Fingerprint(tr, st)
	}
	var chunks []*pipetrace.Trace
	defer func() {
		for _, ch := range chunks {
			ch.Release()
		}
	}()
	st, err := c.RunStream(stream, 256, func(ch *pipetrace.Trace) error {
		chunks = append(chunks, ch)
		if e == engineStreamFail && len(chunks) == 2 {
			return errSinkFailed
		}
		return nil
	})
	var cycles int64
	if e == engineStreamFail {
		if err != errSinkFailed {
			t.Fatalf("failing sink: RunStream returned %v", err)
		}
		st = &Stats{}
	} else if err != nil {
		t.Fatal(err)
	} else {
		cycles = st.Cycles
	}
	return ChunkedFingerprint(cycles, st, func(hash func(*pipetrace.Record)) {
		for _, ch := range chunks {
			for i := range ch.Records {
				hash(&ch.Records[i])
			}
		}
	})
}

// l1Shapes lists every (size KB, associativity) L1 shape of the space.
func l1Shapes() [][2]int {
	space := uarch.StandardSpace()
	var shapes [][2]int
	for _, kb := range space.Values(uarch.ParamICacheKB) {
		for _, assoc := range space.Values(uarch.ParamICacheAssoc) {
			shapes = append(shapes, [2]int{kb, assoc})
		}
	}
	return shapes
}

// TestRecycledLineageMatchesFresh drives a seeded sequence of configs,
// workloads and engines through two lineages — one core reset in place
// between steps, and cores passed through Release and New — and checks
// every step of both against a never-pooled core. The sequence puts every
// L1 shape of the space on both caches, alternates ROB 32 and 256 (the
// issue ring resliced down and back up), grows the issue ring, and
// releases a core whose streamed run failed midway.
func TestRecycledLineageMatchesFresh(t *testing.T) {
	space := uarch.StandardSpace()
	rng := rand.New(rand.NewSource(5))
	shapes := l1Shapes()
	const chaseStep = 9
	var lineage, pooled *Core
	for i := 0; i < 4*len(shapes); i++ {
		cfg := space.Decode(space.Random(rng))
		cfg.ICacheKB, cfg.ICacheAssoc = shapes[i%len(shapes)][0], shapes[i%len(shapes)][1]
		d := shapes[(i+i/len(shapes))%len(shapes)]
		cfg.DCacheKB, cfg.DCacheAssoc = d[0], d[1]
		cfg.ROBEntries = []int{32, 256}[(i/2)%2]
		e := engine(i % int(numEngines))
		var stream []isa.Inst
		if i == chaseStep {
			cfg, e, stream = chaseConfig(), engineRun, chaseStream(3000)
		} else {
			p, err := workload.ByName(parityWorkloads[i%len(parityWorkloads)])
			if err != nil {
				t.Fatal(err)
			}
			if stream, err = workload.CachedTrace(p, 1500); err != nil {
				t.Fatal(err)
			}
		}
		if lineage == nil {
			lineage, pooled = fresh(t, cfg), fresh(t, cfg)
		} else {
			renew(t, lineage, cfg)
			pooled = recycle(t, pooled, cfg)
		}
		want := runFingerprint(t, fresh(t, cfg), stream, e)
		for j, c := range []*Core{lineage, pooled} {
			if got := runFingerprint(t, c, stream, e); got != want {
				t.Fatalf("step %d (%s, %s), %s lineage: fingerprint %#x, fresh core %#x",
					i, e, cfg, [...]string{"reset", "Release+New"}[j], got, want)
			}
		}
		if i == chaseStep && lineage.issueBW.grown == 0 {
			t.Fatal("the pointer chase did not grow the issue ring; the growth transition is not covered")
		}
	}
}

// TestSeedParityRecycled replays TestSeedParity's pinned fingerprints on
// one recycled core, starting from a core whose issue ring has grown.
// Each pinned Run follows a RunStats of the same pin on the same core, so
// the ring-mode pools are shown not to survive the reset between them,
// and RunStats' Stats must equal the pinned run's.
func TestSeedParityRecycled(t *testing.T) {
	c := fresh(t, chaseConfig())
	runFingerprint(t, c, chaseStream(3000), engineRun)
	for _, pin := range []struct {
		cfgName string
		cfg     uarch.Config
	}{{"tight", tightConfig()}, {"baseline", uarch.Baseline()}} {
		cfgName := pin.cfgName
		for _, name := range parityWorkloads {
			p, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := workload.CachedTrace(p, parityTraceLen)
			if err != nil {
				t.Fatal(err)
			}
			renew(t, c, pin.cfg)
			stats := runFingerprint(t, c, stream, engineStats)
			renew(t, c, pin.cfg)
			tr, st, err := c.Run(stream)
			if err != nil {
				t.Fatal(err)
			}
			got := Fingerprint(tr, st)
			tr.Release()
			if want := seedFingerprints[cfgName][name]; got != want {
				t.Errorf("%s/%s on a recycled core after RunStats: fingerprint %#x, pinned %#x", cfgName, name, got, want)
			}
			if want := statsFingerprint(st); stats != want {
				t.Errorf("%s/%s: RunStats' Stats fingerprint %#x, Run's %#x", cfgName, name, stats, want)
			}
		}
	}
}

// statsFingerprint is ChunkedFingerprint of a run's Stats alone.
func statsFingerprint(st *Stats) uint64 {
	return ChunkedFingerprint(st.Cycles, st, func(func(*pipetrace.Record)) {})
}

// TestStatsOutliveRelease pins the Stats copy: the evaluator releases a
// core before the power model reads the Stats its run returned, so a
// later reset and run of the same core must not change them.
func TestStatsOutliveRelease(t *testing.T) {
	stream := testStream(t, 1000)
	c := fresh(t, uarch.Baseline())
	tr, st, err := c.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	tr.Release()
	want := *st
	renew(t, c, tightConfig())
	runFingerprint(t, c, stream, engineRun)
	if *st != want {
		t.Fatalf("Stats changed after the core was recycled:\nbefore %+v\nafter  %+v", want, *st)
	}
}

// TestReleaseTwicePanics: a second Release of the same core is a bug (two
// owners would later share one recycled core), so it fails loudly.
func TestReleaseTwicePanics(t *testing.T) {
	c := fresh(t, uarch.Baseline())
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	c.Release()
}

// TestRecycledCoresConcurrent runs New, Run and Release from several
// goroutines at once over mixed configs, so released cores move between
// goroutines and configs through the pool, and checks every fingerprint
// against the config's fresh-core value. make race runs it with -race
// -count=10.
func TestRecycledCoresConcurrent(t *testing.T) {
	space := uarch.StandardSpace()
	rng := rand.New(rand.NewSource(9))
	cfgs := make([]uarch.Config, 6)
	for i := range cfgs {
		cfgs[i] = space.Decode(space.Random(rng))
	}
	stream := testStream(t, 800)
	want := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = runFingerprint(t, fresh(t, cfg), stream, engineRun)
	}
	const workers, rounds = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + 5*r) % len(cfgs)
				if err := runAndRelease(cfgs[i], stream, want[i]); err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// runAndRelease is one evaluator-style simulation: New, Run, Release.
func runAndRelease(cfg uarch.Config, stream []isa.Inst, want uint64) error {
	c, err := New(cfg)
	if err != nil {
		return err
	}
	defer c.Release()
	tr, st, err := c.Run(stream)
	if err != nil {
		return err
	}
	defer tr.Release()
	if got := Fingerprint(tr, st); got != want {
		return fmt.Errorf("%s: fingerprint %#x, fresh core %#x", cfg, got, want)
	}
	return nil
}
