package pipetrace

import (
	"testing"

	"archexplorer/internal/uarch"
)

func TestGetTraceCapacityAndReuse(t *testing.T) {
	tr := GetTrace(128)
	if len(tr.Records) != 0 || cap(tr.Records) < 128 {
		t.Fatalf("fresh trace: len=%d cap=%d, want 0/>=128", len(tr.Records), cap(tr.Records))
	}
	tr.Records = append(tr.Records, NewRecord(0, 0x100, 0))
	tr.Cycles = 42
	tr.Records[0].ResourceDeps = tr.InternDeps([]ResourceDep{{Resource: uarch.ResROB, Producer: 7}})
	tr.Records[0].DataProducers = tr.InternProducers([]int{1, 2})
	tr.Release()

	// A released trace comes back empty whatever storage it reuses.
	got := GetTrace(64)
	if len(got.Records) != 0 || got.Cycles != 0 {
		t.Fatalf("reused trace not reset: len=%d cycles=%d", len(got.Records), got.Cycles)
	}
	if len(got.deps) != 0 || len(got.prods) != 0 {
		t.Fatalf("reused trace kept arena contents: deps=%d prods=%d", len(got.deps), len(got.prods))
	}
	got.Release()

	// Asking for more capacity than the pooled trace holds regrows it.
	big := GetTrace(100000)
	if cap(big.Records) < 100000 {
		t.Fatalf("capacity not honored: cap=%d", cap(big.Records))
	}
	big.Release()
}

func TestReleaseNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Release() // must not panic
}

func TestInternDepsContentAndStability(t *testing.T) {
	tr := &Trace{}
	if got := tr.InternDeps(nil); got != nil {
		t.Fatalf("empty intern should return nil, got %v", got)
	}

	// Intern enough batches to force at least one arena chunk retirement
	// and verify earlier slices keep their contents (the retired chunk
	// stays referenced by the returned subslices).
	var slices [][]ResourceDep
	var want [][]ResourceDep
	for i := 0; i < 2000; i++ {
		src := []ResourceDep{
			{Resource: uarch.ResROB, Producer: i},
			{Resource: uarch.ResIQ, Producer: i + 1},
		}
		slices = append(slices, tr.InternDeps(src))
		want = append(want, src)
	}
	for i := range slices {
		if len(slices[i]) != 2 || slices[i][0] != want[i][0] || slices[i][1] != want[i][1] {
			t.Fatalf("interned slice %d corrupted: %v want %v", i, slices[i], want[i])
		}
	}

	// Full-capacity subslices: an append to one interned slice must not
	// overwrite its neighbor.
	a := tr.InternDeps([]ResourceDep{{Resource: uarch.ResLQ, Producer: 1}})
	b := tr.InternDeps([]ResourceDep{{Resource: uarch.ResSQ, Producer: 2}})
	_ = append(a, ResourceDep{Resource: uarch.ResROB, Producer: 99})
	if b[0].Producer != 2 || b[0].Resource != uarch.ResSQ {
		t.Fatalf("append through interned slice clobbered neighbor: %v", b[0])
	}
}

func TestInternProducersContent(t *testing.T) {
	tr := &Trace{}
	if got := tr.InternProducers(nil); got != nil {
		t.Fatalf("empty intern should return nil, got %v", got)
	}
	var slices [][]int
	for i := 0; i < 3000; i++ {
		slices = append(slices, tr.InternProducers([]int{i, i * 2}))
	}
	for i := range slices {
		if slices[i][0] != i || slices[i][1] != i*2 {
			t.Fatalf("interned producers %d corrupted: %v", i, slices[i])
		}
	}
}
