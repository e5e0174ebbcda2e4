package bpred

import (
	"math/rand"
	"reflect"
	"testing"

	"archexplorer/internal/isa"
)

func newPred(t *testing.T) *Predictor {
	t.Helper()
	p, err := New(Config{LocalEntries: 1024, GlobalEntries: 4096, BTBEntries: 1024, RASEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewRejectsBadSizes(t *testing.T) {
	bad := []Config{
		{LocalEntries: 1000, GlobalEntries: 4096, BTBEntries: 1024, RASEntries: 16},
		{LocalEntries: 1024, GlobalEntries: 0, BTBEntries: 1024, RASEntries: 16},
		{LocalEntries: 1024, GlobalEntries: 4096, BTBEntries: 3, RASEntries: 16},
		{LocalEntries: 1024, GlobalEntries: 4096, BTBEntries: 1024, RASEntries: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

// train runs a branch through predict+train once and reports the
// prediction.
func train(p *Predictor, pc uint64, taken bool, target uint64) Prediction {
	pred := p.Predict(pc, isa.BrCond)
	if pred.Taken != taken || (taken && pred.Target != target) {
		p.Recover(pred.Snap, isa.BrCond, taken)
	}
	p.Train(pc, isa.BrCond, taken, target, pred.Snap.Hist())
	return pred
}

func TestLearnsAlwaysTakenBranch(t *testing.T) {
	p := newPred(t)
	pc, target := uint64(0x1000), uint64(0x2000)
	// Warmup.
	for i := 0; i < 16; i++ {
		train(p, pc, true, target)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		pred := train(p, pc, true, target)
		if pred.Taken && pred.Target == target {
			correct++
		}
	}
	if correct < 98 {
		t.Fatalf("always-taken branch predicted %d/100", correct)
	}
}

func TestLearnsPeriodicPattern(t *testing.T) {
	p := newPred(t)
	pc, target := uint64(0x4000), uint64(0x5000)
	period := 4 // T T T N repeating
	outcome := func(i int) bool { return i%period != period-1 }
	for i := 0; i < 200; i++ {
		train(p, pc, outcome(i), target)
	}
	correct := 0
	for i := 200; i < 400; i++ {
		pred := p.Predict(pc, isa.BrCond)
		want := outcome(i)
		ok := pred.Taken == want && (!want || pred.Target == target)
		if ok {
			correct++
		} else {
			p.Recover(pred.Snap, isa.BrCond, want)
		}
		p.Train(pc, isa.BrCond, want, target, pred.Snap.Hist())
	}
	if correct < 190 {
		t.Fatalf("period-%d branch predicted %d/200 after warmup", period, correct)
	}
}

func TestRASPredictsReturns(t *testing.T) {
	p := newPred(t)
	callPC := uint64(0x100)
	retPC := uint64(0x900)
	// Warm the BTB for the call target.
	p.Train(callPC, isa.BrCall, true, 0x800, 0)

	correct := 0
	for i := 0; i < 50; i++ {
		p.Predict(callPC, isa.BrCall) // pushes callPC+4
		pred := p.Predict(retPC, isa.BrRet)
		if pred.Taken && pred.Target == callPC+4 {
			correct++
		}
	}
	if correct < 50 {
		t.Fatalf("RAS predicted %d/50 returns", correct)
	}
}

func TestRASDepthOverflowWraps(t *testing.T) {
	p, err := New(Config{LocalEntries: 512, GlobalEntries: 2048, BTBEntries: 512, RASEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Push 4 frames into a 2-entry RAS: the two oldest are lost.
	for i := 0; i < 4; i++ {
		p.Predict(uint64(0x100+16*i), isa.BrCall)
	}
	// The two youngest pop correctly.
	if pred := p.Predict(0x900, isa.BrRet); pred.Target != 0x100+16*3+4 {
		t.Fatalf("first pop got %#x", pred.Target)
	}
	if pred := p.Predict(0x904, isa.BrRet); pred.Target != 0x100+16*2+4 {
		t.Fatalf("second pop got %#x", pred.Target)
	}
	// The next pop has been overwritten by wrap-around; it must NOT
	// return the oldest frame's correct address.
	if pred := p.Predict(0x908, isa.BrRet); pred.Target == 0x100+16*1+4 {
		t.Fatal("2-entry RAS cannot remember 3 frames")
	}
}

func TestBTBMissForcesNotTaken(t *testing.T) {
	p := newPred(t)
	// Saturate toward taken without ever training the BTB target.
	pc := uint64(0x7000)
	for i := 0; i < 8; i++ {
		pred := p.Predict(pc, isa.BrCond)
		p.Train(pc, isa.BrCond, true, 0, pred.Snap.Hist()) // target 0: no BTB fill
	}
	pred := p.Predict(pc, isa.BrCond)
	if pred.Taken {
		t.Fatal("predicted taken without a BTB target to redirect to")
	}
	if p.BTBMisses == 0 {
		t.Fatal("BTB miss counter never incremented")
	}
}

func TestRecoverRestoresHistory(t *testing.T) {
	p := newPred(t)
	h0 := p.GlobalHist()
	pred := p.Predict(0x100, isa.BrCond)
	if p.GlobalHist() == h0<<1 && pred.Taken {
		// speculative update happened; fine either way
	}
	p.Recover(pred.Snap, isa.BrCond, true)
	if p.GlobalHist() != h0<<1|1 {
		t.Fatalf("recover+actual: hist %b, want %b", p.GlobalHist(), h0<<1|1)
	}
}

func TestStatisticsAccumulate(t *testing.T) {
	p := newPred(t)
	for i := 0; i < 10; i++ {
		train(p, 0x10, true, 0x20)
	}
	if p.Lookups != 10 {
		t.Fatalf("lookups %d", p.Lookups)
	}
}

// TestResetMatchesNew: a trained predictor reset to any table sizes —
// smaller, larger, equal — equals the one New builds.
func TestResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := newPred(t)
	for _, cfg := range []Config{
		{LocalEntries: 512, GlobalEntries: 2048, BTBEntries: 4096, RASEntries: 40},
		{LocalEntries: 2048, GlobalEntries: 8192, BTBEntries: 1024, RASEntries: 16},
		{LocalEntries: 2048, GlobalEntries: 8192, BTBEntries: 1024, RASEntries: 16},
	} {
		for i := 0; i < 2000; i++ {
			pc := uint64(rng.Intn(4096)) * 4
			kind := isa.BranchKind(rng.Intn(4))
			pred := p.Predict(pc, kind)
			taken := kind != isa.BrCond || rng.Intn(2) == 0
			if pred.Taken != taken {
				p.Recover(pred.Snap, kind, taken)
			}
			p.Train(pc, kind, taken, pc+64, pred.Snap.Hist())
		}
		if _, err := p.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		want, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("Reset to %+v differs from New", cfg)
		}
	}
	if _, err := p.Reset(Config{LocalEntries: 3, GlobalEntries: 4, BTBEntries: 4, RASEntries: 1}); err == nil {
		t.Fatal("Reset accepted a bad size")
	}
}
