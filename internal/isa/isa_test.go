package isa

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpClassPredicates(t *testing.T) {
	cases := []struct {
		c                   OpClass
		mem, float, control bool
	}{
		{OpIntAlu, false, false, false},
		{OpIntMult, false, false, false},
		{OpIntDiv, false, false, false},
		{OpFpAlu, false, true, false},
		{OpFpMult, false, true, false},
		{OpFpDiv, false, true, false},
		{OpLoad, true, false, false},
		{OpStore, true, false, false},
		{OpBranch, false, false, true},
		{OpNop, false, false, false},
	}
	for _, tc := range cases {
		if tc.c.IsMem() != tc.mem || tc.c.IsFloat() != tc.float || tc.c.IsControl() != tc.control {
			t.Errorf("%s: predicates mem=%v float=%v control=%v", tc.c, tc.c.IsMem(), tc.c.IsFloat(), tc.c.IsControl())
		}
		if tc.c.String() == "" {
			t.Errorf("missing name for class %d", tc.c)
		}
	}
	if got := OpClass(200).String(); got != "OpClass(200)" {
		t.Errorf("out-of-range String = %q", got)
	}
}

func TestRegisters(t *testing.T) {
	if !IntReg(5).Valid() || IntReg(5).Float() {
		t.Error("IntReg(5) malformed")
	}
	if !FpReg(7).Float() {
		t.Error("FpReg(7) not float")
	}
	if InvalidReg.Valid() {
		t.Error("InvalidReg is valid")
	}
	if !IntReg(0).IsZero() {
		t.Error("x0 should be zero reg")
	}
	if FpReg(0).IsZero() {
		t.Error("f0 is not a zero reg")
	}
	if IntReg(3).String() != "x3" || FpReg(4).String() != "f4" || InvalidReg.String() != "-" {
		t.Error("register names wrong")
	}
}

// TestLayout pins the sizes the trace cache and every streamed window pay
// per instruction: a one-byte register and a 32-byte instruction (a
// 16-byte register and an 88-byte instruction before the encoding).
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(Reg(0)); got != 1 {
		t.Errorf("Reg is %d bytes, want 1", got)
	}
	if got := unsafe.Sizeof(Inst{}); got != 32 {
		t.Errorf("Inst is %d bytes, want 32", got)
	}
}

// TestRegRoundTrip reads every register, and InvalidReg, back through
// each accessor: the encoding keeps the index, the file, validity and
// the name apart for all 65 values.
func TestRegRoundTrip(t *testing.T) {
	type want struct {
		index        int
		float, valid bool
		zero         bool
		name         string
	}
	check := func(r Reg, w want) {
		t.Helper()
		got := want{r.Index(), r.Float(), r.Valid(), r.IsZero(), r.String()}
		if got != w {
			t.Errorf("Reg(%#02x): got %+v, want %+v", uint8(r), got, w)
		}
	}
	seen := map[Reg]bool{InvalidReg: true}
	for i := 0; i < NumIntArchRegs; i++ {
		check(IntReg(i), want{i, false, true, i == ZeroReg, fmt.Sprintf("x%d", i)})
		check(FpReg(i), want{i, true, true, false, fmt.Sprintf("f%d", i)})
		for _, r := range []Reg{IntReg(i), FpReg(i)} {
			if seen[r] {
				t.Errorf("%s shares its encoding %#02x", r, uint8(r))
			}
			seen[r] = true
		}
	}
	check(InvalidReg, want{-1, false, false, false, "-"})
	var zero Reg
	if zero != IntReg(ZeroReg) {
		t.Errorf("zero Reg is %s, want x0", zero)
	}
}

// TestRegConstructorsPanic: an index outside 0..31 is refused where it is
// made instead of wrapping into another register.
func TestRegConstructorsPanic(t *testing.T) {
	for _, i := range []int{-1, NumIntArchRegs, NumFpArchRegs + 1, 255, 1 << 40} {
		for name, mk := range map[string]func(int) Reg{"IntReg": IntReg, "FpReg": FpReg} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", name, i)
					}
				}()
				mk(i)
			}()
		}
	}
}

func TestInstDestAndNextPC(t *testing.T) {
	in := Inst{PC: 0x1000, Class: OpIntAlu, Dest: IntReg(5)}
	if !in.HasDest() {
		t.Error("alu with x5 dest should allocate")
	}
	in.Dest = IntReg(0)
	if in.HasDest() {
		t.Error("x0 dest must not allocate a rename register")
	}
	in.Dest = InvalidReg
	if in.HasDest() {
		t.Error("invalid dest must not allocate")
	}

	br := Inst{PC: 0x2000, Class: OpBranch, Taken: true, Target: 0x3000}
	if br.NextPC() != 0x3000 {
		t.Errorf("taken branch NextPC = %#x", br.NextPC())
	}
	br.Taken = false
	if br.NextPC() != 0x2004 {
		t.Errorf("not-taken branch NextPC = %#x", br.NextPC())
	}
	if br.FallThrough() != 0x2004 {
		t.Errorf("FallThrough = %#x", br.FallThrough())
	}
}

func TestNextPCNeverZeroForSequential(t *testing.T) {
	f := func(pc uint32) bool {
		in := Inst{PC: uint64(pc), Class: OpIntAlu}
		return in.NextPC() == uint64(pc)+4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBranchKindString(t *testing.T) {
	for k, want := range map[BranchKind]string{BrCond: "cond", BrJump: "jump", BrCall: "call", BrRet: "ret"} {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}

func TestInstString(t *testing.T) {
	for _, in := range []Inst{
		{PC: 4, Class: OpLoad, Addr: 0x100, Dest: IntReg(3), Src1: IntReg(2)},
		{PC: 8, Class: OpBranch, Taken: true, Target: 0x40},
		{PC: 12, Class: OpFpMult, Dest: FpReg(1), Src1: FpReg(2), Src2: FpReg(3)},
	} {
		if in.String() == "" {
			t.Errorf("empty String for %v", in.Class)
		}
	}
}
