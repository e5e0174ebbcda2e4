package pipetrace

import "testing"

func TestGetTraceCapacityAndReuse(t *testing.T) {
	tr := GetTrace(128)
	if len(tr.Records) != 0 || cap(tr.Records) < 128 {
		t.Fatalf("fresh trace: len=%d cap=%d, want 0/>=128", len(tr.Records), cap(tr.Records))
	}
	tr.Records = append(tr.Records, NewRecord(0, 0x100, 0))
	tr.Cycles = 42
	tr.Release()

	// A released trace comes back empty whatever storage it reuses.
	got := GetTrace(64)
	if len(got.Records) != 0 || got.Cycles != 0 {
		t.Fatalf("reused trace not reset: len=%d cycles=%d", len(got.Records), got.Cycles)
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

// TestGetTraceReturnsWhatWasAsked: a released large trace must not come
// back as a small chunk and keep its records live; GetTrace hands out only
// traces of less than twice the capacity asked for.
func TestGetTraceReturnsWhatWasAsked(t *testing.T) {
	GetTrace(100000).Release()
	small := GetTrace(1024)
	if c := cap(small.Records); c < 1024 || c >= 2048 {
		t.Fatalf("GetTrace(1024) after releasing a 100000-record trace: cap=%d, want [1024, 2048)", c)
	}
	// A pooled trace of the right class but short of the request regrows.
	small.Release()
	grown := GetTrace(2000)
	defer grown.Release()
	if c := cap(grown.Records); c < 2000 || c >= 4000 {
		t.Fatalf("GetTrace(2000) after releasing a 1024-record trace: cap=%d, want [2000, 4000)", c)
	}
}

// TestCapClass: the pool a capacity files under is floor(log2 cap), so
// every trace pool k holds has capacity in [2^k, 2^(k+1)).
func TestCapClass(t *testing.T) {
	for _, c := range []struct{ n, class int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {1023, 9}, {1024, 10}, {2047, 10}, {2048, 11}, {100000, 16},
	} {
		if got := capClass(c.n); got != c.class {
			t.Errorf("capClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}
