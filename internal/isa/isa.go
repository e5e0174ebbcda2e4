// Package isa defines the minimal RISC-style instruction set abstraction
// used by the trace generators and the out-of-order core model.
//
// The model follows the paper's gem5 RISC-V setup: instructions are typed
// micro-ops with up to two register sources and one destination, drawn from
// separate integer and floating-point architectural register files, plus
// loads, stores, and control-flow instructions. Only the attributes that
// influence pipeline timing are represented: operation class (which selects
// the functional unit and its latency), register dependencies (which create
// true data dependencies), and memory/branch behaviour (addresses and
// taken/not-taken outcomes come from the workload trace, so the simulator
// never needs functional emulation).
package isa

import "fmt"

// OpClass identifies the functional-unit class an instruction executes on.
type OpClass uint8

// Operation classes. The set mirrors Table 1/Table 4 of the paper: integer
// ALUs, integer multiply/divide units, floating-point ALUs, floating-point
// multiply/divide units, and cache read/write ports for memory operations.
const (
	OpIntAlu OpClass = iota // simple integer arithmetic, logic, compares
	OpIntMult
	OpIntDiv
	OpFpAlu
	OpFpMult
	OpFpDiv
	OpLoad  // memory read through a RdWr port + D$
	OpStore // memory write through a RdWr port + D$
	OpBranch
	OpNop
	numOpClasses
)

// NumOpClasses is the number of distinct operation classes.
const NumOpClasses = int(numOpClasses)

var opClassNames = [...]string{
	OpIntAlu:  "IntAlu",
	OpIntMult: "IntMult",
	OpIntDiv:  "IntDiv",
	OpFpAlu:   "FpAlu",
	OpFpMult:  "FpMult",
	OpFpDiv:   "FpDiv",
	OpLoad:    "Load",
	OpStore:   "Store",
	OpBranch:  "Branch",
	OpNop:     "Nop",
}

func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("OpClass(%d)", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c OpClass) IsMem() bool { return c == OpLoad || c == OpStore }

// IsFloat reports whether the class executes on the floating-point cluster
// and therefore writes a floating-point destination register.
func (c OpClass) IsFloat() bool { return c == OpFpAlu || c == OpFpMult || c == OpFpDiv }

// IsControl reports whether the class can redirect the front-end.
func (c OpClass) IsControl() bool { return c == OpBranch }

// Architectural register file sizes. RISC-V has 32 integer and 32 FP
// registers; register x0 is hard-wired to zero and never renamed.
const (
	NumIntArchRegs = 32
	NumFpArchRegs  = 32
	ZeroReg        = 0 // integer register 0: reads are free, writes discarded
)

// Reg names an architectural register in one of the two register files,
// in one byte: the index in the low five bits and bit 5 for the
// floating-point file, so the 64 registers are 0..63 and the zero value
// is x0. InvalidReg is all ones. IntReg and FpReg are the only
// constructors.
type Reg uint8

const (
	regIndex Reg = NumIntArchRegs - 1 // low five bits: the index, 0..31
	regFloat Reg = 1 << 5             // set for the floating-point file
)

// InvalidReg marks an unused operand slot.
const InvalidReg Reg = 0xff

// IntReg names integer register i; it panics unless 0 <= i < 32.
func IntReg(i int) Reg { return Reg(regNumber(i)) }

// FpReg names floating-point register i; it panics unless 0 <= i < 32.
func FpReg(i int) Reg { return Reg(regNumber(i)) | regFloat }

// regNumber checks an architectural register index, so an out-of-range
// index fails where it is made instead of naming another register.
func regNumber(i int) uint8 {
	if uint(i) >= NumIntArchRegs {
		panic(fmt.Sprintf("isa: register index %d outside 0..%d", i, NumIntArchRegs-1))
	}
	return uint8(i)
}

// Valid reports whether the register names a real architectural register.
func (r Reg) Valid() bool { return r != InvalidReg }

// Index is the register's number within its file, 0..31, or -1 for
// InvalidReg.
func (r Reg) Index() int {
	if !r.Valid() {
		return -1
	}
	return int(r & regIndex)
}

// Float reports whether the register is in the floating-point file;
// InvalidReg is in neither file.
func (r Reg) Float() bool { return r.Valid() && r&regFloat != 0 }

// IsZero reports whether the register is the hard-wired integer zero.
func (r Reg) IsZero() bool { return r == ZeroReg }

func (r Reg) String() string {
	if !r.Valid() {
		return "-"
	}
	if r.Float() {
		return fmt.Sprintf("f%d", r.Index())
	}
	return fmt.Sprintf("x%d", r.Index())
}

// Inst is one dynamic instruction in a workload trace. The workload layer
// produces fully-resolved dynamic streams (branch outcomes and effective
// addresses included) so the timing model needs no functional execution.
//
// It is 32 bytes, half a cache line: the three 64-bit fields come first
// and the seven one-byte fields follow them in the last word.
type Inst struct {
	PC     uint64
	Addr   uint64 // effective address (Load/Store)
	Target uint64 // actual next PC when taken (control flow)

	Class      OpClass
	Src1, Src2 Reg   // source operands; InvalidReg if unused
	Dest       Reg   // destination; InvalidReg if none (stores, branches, nops)
	Size       uint8 // access size in bytes (Load/Store)
	BrKind     BranchKind
	Taken      bool // actual branch outcome
}

// BranchKind refines OpBranch for the branch-predictor model.
type BranchKind uint8

const (
	BrCond BranchKind = iota // conditional branch (direction predicted)
	BrJump                   // unconditional direct jump (always taken)
	BrCall                   // call: pushes return address on the RAS
	BrRet                    // return: target predicted by the RAS
)

func (k BranchKind) String() string {
	switch k {
	case BrCond:
		return "cond"
	case BrJump:
		return "jump"
	case BrCall:
		return "call"
	case BrRet:
		return "ret"
	}
	return fmt.Sprintf("BranchKind(%d)", uint8(k))
}

// HasDest reports whether the instruction allocates a rename register: it
// must have a valid destination that is not the integer zero register.
func (in *Inst) HasDest() bool { return in.Dest.Valid() && !in.Dest.IsZero() }

// FallThrough returns the next sequential PC (4-byte fixed encoding).
func (in *Inst) FallThrough() uint64 { return in.PC + 4 }

// NextPC returns the architecturally correct next PC.
func (in *Inst) NextPC() uint64 {
	if in.Class.IsControl() && in.Taken {
		return in.Target
	}
	return in.FallThrough()
}

func (in *Inst) String() string {
	switch {
	case in.Class.IsMem():
		return fmt.Sprintf("%#x: %s %s,%s [%#x]", in.PC, in.Class, in.Dest, in.Src1, in.Addr)
	case in.Class.IsControl():
		return fmt.Sprintf("%#x: %s taken=%v -> %#x", in.PC, in.Class, in.Taken, in.Target)
	default:
		return fmt.Sprintf("%#x: %s %s,%s,%s", in.PC, in.Class, in.Dest, in.Src1, in.Src2)
	}
}
