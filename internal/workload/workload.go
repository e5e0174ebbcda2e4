// Package workload generates the synthetic benchmark traces used in place
// of SPEC CPU2006/2017 Simpoints.
//
// The paper evaluates on 12 SPEC06 and 14 SPEC17 workloads (Table 3), using
// the first 100k instructions of each Simpoint for critical-path analysis.
// Real SPEC binaries and Simpoint traces are proprietary inputs we cannot
// ship, so each workload here is a deterministic generator that imitates the
// *microarchitectural character* of its namesake: instruction mix (integer/
// FP/multiply/divide), memory footprint and access pattern (streaming,
// random, pointer-chasing), branch density and predictability, call depth,
// and data-dependence chain length. Those are exactly the axes that decide
// which hardware resource bottlenecks a design — which is all ArchExplorer's
// bottleneck analysis consumes.
//
// Generation is a two-step process mirroring a real program: a seeded
// Profile is first compiled into a static Program (a control-flow graph of
// basic blocks over static instruction slots with fixed PCs), and the
// dynamic trace is then a seeded walk over that CFG. Static PCs repeat
// across the walk, so branch predictors and instruction caches observe
// realistic locality.
package workload

import (
	"fmt"
	"math/rand"

	"archexplorer/internal/isa"
)

// Profile describes the microarchitectural character of a workload.
type Profile struct {
	Name  string
	Suite string // "SPEC06" or "SPEC17"

	Blocks    int // static basic blocks in the hot region
	BlockMin  int // min non-branch instructions per block
	BlockMax  int // max non-branch instructions per block
	CallDepth int // fraction control: >0 enables call/return blocks

	// Instruction mix (fractions of non-branch slots; remainder is IntAlu).
	FpFrac    float64 // FP ALU ops
	FpMulFrac float64 // FP multiply/divide ops
	MulFrac   float64 // integer multiply ops
	DivFrac   float64 // integer divide ops
	LoadFrac  float64
	StoreFrac float64

	// Memory behaviour.
	FootprintKB int     // working-set size
	StreamFrac  float64 // fraction of static memory slots with unit-stride streams
	ChaseFrac   float64 // fraction of static loads that are pointer-chasing

	// Dependence structure.
	ChainFrac float64 // probability an op reads the immediately preceding dest

	// Branch behaviour.
	BranchBias float64 // per-static-branch probability of its biased direction
	CallFrac   float64 // fraction of blocks that end in call (paired with ret)
}

// Validate reports profile fields that would generate a malformed program.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile missing name")
	}
	if p.Blocks < 2 {
		return fmt.Errorf("workload %s: need at least 2 blocks", p.Name)
	}
	if p.BlockMin < 1 || p.BlockMax < p.BlockMin {
		return fmt.Errorf("workload %s: bad block length range [%d,%d]", p.Name, p.BlockMin, p.BlockMax)
	}
	if p.FootprintKB < 1 {
		return fmt.Errorf("workload %s: footprint must be >= 1KB", p.Name)
	}
	mix := p.FpFrac + p.FpMulFrac + p.MulFrac + p.DivFrac + p.LoadFrac + p.StoreFrac
	if mix > 1.0001 {
		return fmt.Errorf("workload %s: instruction mix sums to %.3f > 1", p.Name, mix)
	}
	for _, f := range []float64{p.StreamFrac, p.ChaseFrac, p.ChainFrac, p.BranchBias, p.CallFrac} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workload %s: fraction %v out of [0,1]", p.Name, f)
		}
	}
	return nil
}

// memPattern is the address behaviour of one static memory slot.
type memPattern uint8

const (
	memStream memPattern = iota // sequential, unit cache-line stride
	memRandom                   // uniform in the working set
	memChase                    // serialized pointer chase in the working set
)

// staticInst is one static instruction slot of a Program.
type staticInst struct {
	pc    uint64
	class isa.OpClass
	// memory slots
	pattern memPattern
	region  uint64 // base address of this slot's region
	regSize uint64 // region size in bytes
	stride  uint64
	// state numbers the slots whose next dynamic instance depends on
	// their earlier ones (streaming and chasing memory slots, loop
	// branches), densely from 0, for Generator.state.
	state int
	// branch slots
	brKind isa.BranchKind
	bias   float64 // probability of taking the branch (irregular branches)
	period int     // >0: deterministic loop branch, taken period-1 of period
	taken  int     // CFG successor when taken
	fall   int     // CFG successor when not taken
}

// block is a basic block: a run of static instructions ending in an
// optional branch.
type block struct {
	insts []staticInst
}

// Program is the compiled static form of a Profile.
type Program struct {
	Profile Profile
	blocks  []block
	entry   int
	states  int // static slots that carry generator state
}

// dataBase is where every memory slot's region starts. No streaming or
// chasing address falls below it, so a zero in Generator.state means the
// slot has not run yet.
const dataBase = 0x100000

// Generator walks a Program, producing the dynamic instruction stream.
type Generator struct {
	prog *Program
	rng  *rand.Rand

	cur   int // current block index
	idx   int // next instruction slot within the current block
	stack []int
	// state is indexed by staticInst.state: a streaming slot's next
	// address, a chasing slot's current pointer, a loop branch's
	// execution count. Zero means the slot has not run.
	state    []uint64
	winBase  uint64  // shared hot-window base (random pattern)
	winCnt   int     // shared access count (window drift)
	lastDest isa.Reg // most recent destination register
	lastLoad isa.Reg // most recent load destination (for chases)
	regRot   int     // round-robin architectural dest allocator
}

// Compile expands a Profile into a static Program using the given seed.
func Compile(p Profile, seed int64) (*Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	prog := &Program{Profile: p}

	const pcStride = 4
	nextPC := uint64(0x10000)
	footprint := uint64(p.FootprintKB) * 1024

	for b := 0; b < p.Blocks; b++ {
		n := p.BlockMin
		if p.BlockMax > p.BlockMin {
			n += rng.Intn(p.BlockMax - p.BlockMin + 1)
		}
		var blk block
		for i := 0; i < n; i++ {
			si := staticInst{pc: nextPC}
			nextPC += pcStride
			r := rng.Float64()
			switch {
			case r < p.LoadFrac:
				si.class = isa.OpLoad
			case r < p.LoadFrac+p.StoreFrac:
				si.class = isa.OpStore
			case r < p.LoadFrac+p.StoreFrac+p.FpFrac:
				si.class = isa.OpFpAlu
			case r < p.LoadFrac+p.StoreFrac+p.FpFrac+p.FpMulFrac:
				if rng.Float64() < 0.05 {
					si.class = isa.OpFpDiv
				} else {
					si.class = isa.OpFpMult
				}
			case r < p.LoadFrac+p.StoreFrac+p.FpFrac+p.FpMulFrac+p.MulFrac:
				si.class = isa.OpIntMult
			case r < p.LoadFrac+p.StoreFrac+p.FpFrac+p.FpMulFrac+p.MulFrac+p.DivFrac:
				si.class = isa.OpIntDiv
			default:
				si.class = isa.OpIntAlu
			}
			if si.class.IsMem() {
				si.region = dataBase
				si.regSize = footprint
				si.stride = 8 // element-granular streaming: ~1 miss per 8 accesses
				mr := rng.Float64()
				switch {
				case si.class == isa.OpLoad && mr < p.ChaseFrac:
					si.pattern = memChase
				case mr < p.ChaseFrac+p.StreamFrac:
					si.pattern = memStream
				default:
					si.pattern = memRandom
				}
				if si.pattern != memRandom {
					si.state = prog.newState()
				}
			}
			blk.insts = append(blk.insts, si)
		}
		// Terminator branch; successors are filled in below.
		term := staticInst{pc: nextPC, class: isa.OpBranch, bias: p.BranchBias}
		nextPC += pcStride
		blk.insts = append(blk.insts, term)
		prog.blocks = append(prog.blocks, blk)
	}

	// Wire the CFG: mostly loopy back-edges plus forward jumps, with a
	// CallFrac share of call/return pairs exercising the RAS. The last
	// block jumps back to the entry unconditionally so fall-through PCs
	// stay contiguous.
	for b := range prog.blocks {
		if b == p.Blocks-1 {
			term := &prog.blocks[b].insts[len(prog.blocks[b].insts)-1]
			term.brKind = isa.BrJump
			term.taken = 0
			term.fall = 0
			continue
		}
		term := &prog.blocks[b].insts[len(prog.blocks[b].insts)-1]
		term.fall = (b + 1) % p.Blocks
		switch r := rng.Float64(); {
		case r < p.CallFrac/2:
			term.brKind = isa.BrCall
			term.bias = 1.0
			term.taken = rng.Intn(p.Blocks)
		case r < p.CallFrac:
			term.brKind = isa.BrRet
			term.bias = 1.0
			term.taken = rng.Intn(p.Blocks) // fallback target when stack empty
		case rng.Float64() < 0.6:
			// Loop back-edge to a recent block. With probability
			// BranchBias the loop has a deterministic trip count (the
			// predictable branches of real code); otherwise the exit
			// is data-dependent (irregular).
			back := b - 1 - rng.Intn(4)
			if back < 0 {
				back += p.Blocks
			}
			term.brKind = isa.BrCond
			term.taken = back
			// Regular (fixed-trip-count) loops dominate; truly
			// data-dependent exits are the (1-bias)/2 minority and
			// remain biased one way, as real hard branches are.
			if rng.Float64() < (1+p.BranchBias)/2 {
				term.period = 3 + rng.Intn(6)
				term.state = prog.newState()
			} else {
				term.bias = 0.65 + 0.25*rng.Float64()
			}
		default:
			term.brKind = isa.BrCond
			term.taken = rng.Intn(p.Blocks)
			if rng.Float64() < (1+p.BranchBias)/2 {
				term.period = 2 + rng.Intn(7)
				term.state = prog.newState()
			} else {
				term.bias = 0.65 + 0.25*rng.Float64()
			}
		}
	}
	return prog, nil
}

// newState numbers the next static slot that carries generator state.
func (prog *Program) newState() int {
	prog.states++
	return prog.states - 1
}

// NewGenerator starts a dynamic walk over the program.
func (prog *Program) NewGenerator(seed int64) *Generator {
	return &Generator{
		prog:     prog,
		rng:      rand.New(rand.NewSource(seed)),
		cur:      prog.entry,
		state:    make([]uint64, prog.states),
		lastDest: isa.InvalidReg,
		lastLoad: isa.InvalidReg,
	}
}

// nextReg allocates a destination register, rotating through the upper
// architectural registers so WAW recycling resembles compiled code.
func (g *Generator) nextReg(float bool) isa.Reg {
	g.regRot++
	idx := 8 + g.regRot%20 // avoid x0..x7 (stack/zero-like), reuse 20 regs
	if float {
		return isa.FpReg(idx)
	}
	return isa.IntReg(idx)
}

// srcReg picks a source register, honouring the profile's chain fraction.
// Besides chained reads of the previous destination, a large share of reads
// hit long-lived values (loop invariants, base pointers: x2..x7), which are
// always ready and create no scheduling pressure — real code's main source
// of instruction-level parallelism.
func (g *Generator) srcReg(float bool) isa.Reg {
	p := g.prog.Profile
	if g.lastDest.Valid() && g.lastDest.Float() == float && g.rng.Float64() < p.ChainFrac {
		return g.lastDest
	}
	if g.rng.Float64() < 0.45 {
		idx := 2 + g.rng.Intn(6) // invariant pool
		if float {
			return isa.FpReg(idx)
		}
		return isa.IntReg(idx)
	}
	idx := 8 + g.rng.Intn(20)
	if float {
		return isa.FpReg(idx)
	}
	return isa.IntReg(idx)
}

// address computes the next effective address for a static memory slot.
func (g *Generator) address(si *staticInst) uint64 {
	switch si.pattern {
	case memStream:
		a := g.state[si.state]
		if a == 0 || a >= si.region+si.regSize {
			a = si.region
		}
		g.state[si.state] = a + si.stride
		return a
	case memChase:
		a := g.state[si.state]
		if a == 0 {
			a = si.region
		}
		// A deterministic scramble keeps the chase inside the working
		// set while defeating next-line locality.
		next := si.region + (a*2654435761+97)%si.regSize
		next &^= 7
		g.state[si.state] = next
		return a
	default:
		// Random accesses model heap locality with a drifting hot window
		// shared by all access sites: most references land in a small
		// window whose base occasionally jumps elsewhere in the footprint
		// (phase change), and a cold tail touches the whole working set.
		win := uint64(8 * 1024)
		if win > si.regSize {
			win = si.regSize
		}
		g.winCnt++
		if g.winBase == 0 || g.winCnt%1024 == 0 {
			g.winBase = si.region + (g.rng.Uint64()%si.regSize)&^63
			if g.winBase+win > si.region+si.regSize {
				g.winBase = si.region + si.regSize - win
			}
		}
		if g.rng.Float64() < 0.95 {
			return g.winBase + (g.rng.Uint64()%win)&^7
		}
		return si.region + (g.rng.Uint64()%si.regSize)&^7
	}
}

// next fills *out with the next dynamic instruction, in place.
func (g *Generator) next(out *isa.Inst) {
	blk := &g.prog.blocks[g.cur]
	if g.idx >= len(blk.insts) {
		g.idx = 0
	}
	si := &blk.insts[g.idx]
	g.idx++

	*out = isa.Inst{PC: si.pc, Class: si.class}
	switch si.class {
	case isa.OpLoad:
		out.Addr = g.address(si)
		out.Size = 8
		if si.pattern == memChase && g.lastLoad.Valid() {
			out.Src1 = g.lastLoad // serialize the chase
		} else {
			out.Src1 = g.srcReg(false)
		}
		out.Src2 = isa.InvalidReg
		out.Dest = g.nextReg(false)
		g.lastLoad = out.Dest
		g.lastDest = out.Dest
	case isa.OpStore:
		out.Addr = g.address(si)
		out.Size = 8
		out.Src1 = g.srcReg(false) // address register
		out.Src2 = g.srcReg(false) // data register
		out.Dest = isa.InvalidReg
	case isa.OpBranch:
		out.BrKind = si.brKind
		out.Src1 = g.srcReg(false)
		out.Src2 = isa.InvalidReg
		out.Dest = isa.InvalidReg
		next := si.fall
		taken := false
		switch si.brKind {
		case isa.BrCall:
			taken = true
			next = si.taken
			maxDepth := 4 * (g.prog.Profile.CallDepth + 1)
			if len(g.stack) < maxDepth {
				g.stack = append(g.stack, si.fall)
			}
			out.Dest = isa.IntReg(1) // link register
		case isa.BrRet:
			taken = true
			if n := len(g.stack); n > 0 {
				next = g.stack[n-1]
				g.stack = g.stack[:n-1]
			} else {
				next = si.taken
			}
		case isa.BrJump:
			taken = true
			next = si.taken
		default:
			if si.period > 0 {
				cnt := g.state[si.state]
				g.state[si.state] = cnt + 1
				if cnt%uint64(si.period) != uint64(si.period-1) {
					taken = true
					next = si.taken
				}
			} else if g.rng.Float64() < si.bias {
				taken = true
				next = si.taken
			}
		}
		out.Taken = taken
		if taken {
			out.Target = g.prog.blocks[next].insts[0].pc
		}
		g.cur = next
		g.idx = 0
	default:
		float := si.class.IsFloat()
		out.Src1 = g.srcReg(float)
		if g.rng.Float64() < 0.35 {
			out.Src2 = isa.InvalidReg // immediate-operand forms
		} else {
			out.Src2 = g.srcReg(float)
		}
		out.Dest = g.nextReg(float)
		g.lastDest = out.Dest
	}
}

// Trace emits n dynamic instructions, each generated in its place.
func (g *Generator) Trace(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		g.next(&out[i])
	}
	return out
}
