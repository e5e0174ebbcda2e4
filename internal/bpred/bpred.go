// Package bpred implements the tournament branch predictor of the baseline
// microarchitecture (Table 1): a local predictor, a global predictor, a
// choice predictor arbitrating between them, a branch target buffer, and a
// return address stack.
//
// The predictor is consulted at fetch and trained at commit time by the
// core model. Speculative state (global history, RAS) is checkpointed at
// prediction and restored on squash, matching the gem5 O3 TournamentBP.
package bpred

import (
	"fmt"

	"archexplorer/internal/isa"
)

// Config sizes the predictor structures. All table sizes must be powers of
// two; the core validates that via uarch.Config.Validate.
type Config struct {
	LocalEntries  int // local history/counter table entries
	GlobalEntries int // global counter table entries (choice table matches)
	BTBEntries    int
	RASEntries    int
}

// counter is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
}

// Predictor is a tournament branch predictor with BTB and RAS.
type Predictor struct {
	cfg Config

	localHist []uint16  // per-PC local history registers
	localCtr  []counter // indexed by local history
	globalCtr []counter // indexed by global history
	choiceCtr []counter // 0..1 prefer local, 2..3 prefer global

	globalHist uint64
	btb        []btbEntry
	ras        []uint64
	rasTop     int // number of valid entries

	// Statistics.
	Lookups, Mispredicts uint64
	BTBMisses            uint64
}

// New constructs a predictor; table sizes must be powers of two. It is
// Reset on a nil predictor.
func New(cfg Config) (*Predictor, error) { return (*Predictor)(nil).Reset(cfg) }

// Reset returns the predictor to the untrained state New(cfg) builds —
// zeroed tables, empty history and RAS, zero statistics — reusing p's
// tables when their capacity suffices, and returns it; a nil p allocates.
// An invalid cfg leaves p untouched.
func (p *Predictor) Reset(cfg Config) (*Predictor, error) {
	for _, s := range []struct {
		name string
		v    int
	}{{"LocalEntries", cfg.LocalEntries}, {"GlobalEntries", cfg.GlobalEntries}, {"BTBEntries", cfg.BTBEntries}} {
		if s.v < 2 || s.v&(s.v-1) != 0 {
			return nil, fmt.Errorf("bpred: %s=%d must be a power of two >= 2", s.name, s.v)
		}
	}
	if cfg.RASEntries < 1 {
		return nil, fmt.Errorf("bpred: RASEntries=%d must be >= 1", cfg.RASEntries)
	}
	if p == nil {
		p = new(Predictor)
	}
	*p = Predictor{
		cfg:       cfg,
		localHist: zeroed(p.localHist, cfg.LocalEntries),
		localCtr:  zeroed(p.localCtr, cfg.LocalEntries),
		globalCtr: zeroed(p.globalCtr, cfg.GlobalEntries),
		choiceCtr: zeroed(p.choiceCtr, cfg.GlobalEntries),
		btb:       zeroed(p.btb, cfg.BTBEntries),
		ras:       zeroed(p.ras, cfg.RASEntries),
	}
	return p, nil
}

// zeroed returns s resliced to n zero elements, reusing its backing array
// when the capacity suffices.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Snapshot captures the speculative predictor state needed to recover from
// a squash: the global history register and the RAS. It is a plain value —
// the single RAS slot a call overwrites is saved inline rather than in an
// allocated copy, keeping the predict path allocation-free.
type Snapshot struct {
	globalHist uint64
	rasTop     int
	rasSaved   uint64 // RAS slot value overwritten by a call's push
	rasValid   bool   // rasSaved holds a value to restore
}

// Hist exposes the global history captured at prediction time; the core
// passes it back to Train so the counters indexed at prediction are the
// ones updated.
func (s Snapshot) Hist() uint64 { return s.globalHist }

// Prediction is the front-end's view of one branch.
type Prediction struct {
	Taken  bool
	Target uint64 // predicted target; 0 when the BTB misses
	Snap   Snapshot
}

func (p *Predictor) localIndex(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.LocalEntries-1))
}

// localCtrIndex selects the local counter from the branch's own history
// register (Alpha 21264 style).
func (p *Predictor) localCtrIndex(_ uint64, hist uint16) int {
	return int(uint64(hist) & uint64(p.cfg.LocalEntries-1))
}

// choiceIndex selects the choice counter by branch PC so the tournament
// learns per-branch which component predicts it better.
func (p *Predictor) choiceIndex(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.GlobalEntries-1))
}

func (p *Predictor) globalIndex() int {
	return int(p.globalHist & uint64(p.cfg.GlobalEntries-1))
}

func (p *Predictor) btbIndex(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.BTBEntries-1))
}

// Predict consults the predictor for a branch at fetch time and
// speculatively updates the global history and RAS.
func (p *Predictor) Predict(pc uint64, kind isa.BranchKind) Prediction {
	p.Lookups++
	snap := Snapshot{globalHist: p.globalHist, rasTop: p.rasTop}

	var pred Prediction
	pred.Snap = snap

	switch kind {
	case isa.BrCall:
		pred.Taken = true
		pred.Target = p.btbTarget(pc)
		// Push the return address; wrap like a circular stack.
		pred.Snap.rasSaved = p.ras[p.rasSlot(p.rasTop)]
		pred.Snap.rasValid = true
		p.ras[p.rasSlot(p.rasTop)] = pc + 4
		p.rasTop++
	case isa.BrRet:
		pred.Taken = true
		if p.rasTop > 0 {
			p.rasTop--
			pred.Target = p.ras[p.rasSlot(p.rasTop)]
		} else {
			pred.Target = p.btbTarget(pc)
		}
	case isa.BrJump:
		pred.Taken = true
		pred.Target = p.btbTarget(pc)
	default: // conditional
		li := p.localIndex(pc)
		localPred := p.localCtr[p.localCtrIndex(pc, p.localHist[li])].taken()
		gi := p.globalIndex()
		globalPred := p.globalCtr[gi].taken()
		if p.choiceCtr[p.choiceIndex(pc)].taken() {
			pred.Taken = globalPred
		} else {
			pred.Taken = localPred
		}
		if pred.Taken {
			pred.Target = p.btbTarget(pc)
		}
		// Speculative global history update.
		p.globalHist = p.globalHist<<1 | boolBit(pred.Taken)
	}
	if pred.Taken && pred.Target == 0 {
		// BTB miss on a taken prediction: the front end cannot redirect,
		// so the effective prediction is not-taken (fall through).
		p.BTBMisses++
		pred.Taken = false
	}
	return pred
}

func (p *Predictor) rasSlot(top int) int {
	n := p.cfg.RASEntries
	return ((top % n) + n) % n
}

func (p *Predictor) btbTarget(pc uint64) uint64 {
	e := p.btb[p.btbIndex(pc)]
	if e.valid && e.tag == pc {
		return e.target
	}
	return 0
}

// Recover restores speculative state after a misprediction squash, then
// re-applies the resolved branch outcome to the global history.
func (p *Predictor) Recover(snap Snapshot, kind isa.BranchKind, actualTaken bool) {
	p.globalHist = snap.globalHist
	p.rasTop = snap.rasTop
	if snap.rasValid {
		p.ras[p.rasSlot(snap.rasTop)] = snap.rasSaved
	}
	if kind == isa.BrCond {
		p.globalHist = p.globalHist<<1 | boolBit(actualTaken)
	}
	if kind == isa.BrCall {
		// Re-apply the call's push: the call itself was correctly fetched.
		p.ras[p.rasSlot(p.rasTop)] = 0 // unknown link; will mispredict the ret
		p.rasTop++
	}
}

// Train updates the tables with a resolved branch outcome (commit time).
func (p *Predictor) Train(pc uint64, kind isa.BranchKind, taken bool, target uint64, histAtPredict uint64) {
	if kind == isa.BrCond {
		li := p.localIndex(pc)
		lhist := p.localCtrIndex(pc, p.localHist[li])
		localPred := p.localCtr[lhist].taken()
		gi := int(histAtPredict & uint64(p.cfg.GlobalEntries-1))
		globalPred := p.globalCtr[gi].taken()

		// Choice: strengthen toward whichever component was right.
		if localPred != globalPred {
			ci := p.choiceIndex(pc)
			p.choiceCtr[ci] = p.choiceCtr[ci].update(globalPred == taken)
		}
		p.localCtr[lhist] = p.localCtr[lhist].update(taken)
		p.globalCtr[gi] = p.globalCtr[gi].update(taken)
		p.localHist[li] = p.localHist[li]<<1 | uint16(boolBit(taken))
	}
	if taken && target != 0 {
		idx := p.btbIndex(pc)
		p.btb[idx] = btbEntry{valid: true, tag: pc, target: target}
	}
}

// GlobalHist exposes the current speculative global history (used by the
// core to remember the history at prediction time for training).
func (p *Predictor) GlobalHist() uint64 { return p.globalHist }

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
