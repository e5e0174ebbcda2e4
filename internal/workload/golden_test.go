package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"archexplorer/internal/isa"
)

// goldenStreamLen is the prefix of every workload's stream that
// TestGoldenStreams pins.
const goldenStreamLen = 5000

// goldenStreams holds the FNV-1a hash of the first goldenStreamLen
// instructions of every workload, recorded when isa.Inst was still 88
// bytes with a 16-byte isa.Reg. The hash reads every field by value and
// every register through Reg.String, so it does not depend on how Inst or
// Reg is laid out: a change of encoding that keeps every instruction's
// value keeps every entry.
var goldenStreams = map[string]uint64{
	"400.perlbench":   0xcf61db23f0346b2f,
	"401.bzip2":       0xcd097aacaa00ea9f,
	"429.mcf":         0xd00b74b5421f67ca,
	"445.gobmk":       0x026b2a62ecd2581e,
	"444.namd":        0xcdfd5c475f0db781,
	"447.dealII":      0xb24f38c977fd5c3b,
	"450.soplex":      0x382dfa540e7dbbd7,
	"453.povray":      0x6cf880a919510c8c,
	"456.hmmer":       0xf7f41df9b97a2e3c,
	"458.sjeng":       0x133ea31549425bdb,
	"462.libquantum":  0xf6046b29def83b05,
	"464.h264ref":     0xd6f4fa9577bc045b,
	"600.perlbench_s": 0x4b40eab5a456e8bb,
	"602.gcc_s":       0x19d70b7e8d0d779b,
	"605.mcf_s":       0x020965c1447dcdaf,
	"620.omnetpp_s":   0x2a092fabdc64b1d7,
	"623.xalancbmk_s": 0x8c8109a68c40f0bc,
	"625.x264_s":      0x8f7bf8efb5680149,
	"631.deepsjeng_s": 0x1a2fdc4e3d82d3fe,
	"641.leela_s":     0xf4aa7e5bac7a0209,
	"648.exchange2_s": 0x236dca2832a84df7,
	"657.xz_s":        0xc89b79a8f0c2b743,
	"603.cactuBSSN_s": 0xc588fa3d8e27fbe9,
	"619.lbm_s":       0xd90e9c599a1711ee,
	"638.imagick_s":   0xdcbf8d5b01d746a1,
	"644.nab_s":       0x62b4b7b765497181,
}

// hashStream folds every field of every instruction into one FNV-1a hash.
func hashStream(tr []isa.Inst) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	// A register goes in by name, terminated so that adjacent names
	// cannot run together.
	reg := func(r isa.Reg) { h.Write(append([]byte(r.String()), 0)) }
	for i := range tr {
		in := &tr[i]
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		u64(in.PC)
		h.Write([]byte{byte(in.Class), in.Size, byte(in.BrKind), taken})
		reg(in.Src1)
		reg(in.Src2)
		reg(in.Dest)
		u64(in.Addr)
		u64(in.Target)
	}
	return h.Sum64()
}

func TestGoldenStreams(t *testing.T) {
	all := All()
	if len(goldenStreams) != len(all) {
		t.Errorf("%d golden streams for %d workloads", len(goldenStreams), len(all))
	}
	for _, p := range all {
		tr, err := Trace(p, goldenStreamLen)
		if err != nil {
			t.Fatal(err)
		}
		got := hashStream(tr)
		if want, ok := goldenStreams[p.Name]; !ok || got != want {
			t.Errorf("%s: stream hash %#016x, want %#016x", p.Name, got, want)
		}
	}
}
