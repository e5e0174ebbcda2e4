package pipetrace

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"archexplorer/internal/isa"
	"archexplorer/internal/uarch"
)

func validRecord(seq int, base int64) Record {
	r := NewRecord(seq, 0x1000+uint64(4*seq), isa.OpIntAlu)
	for s := SF1; s <= SC; s++ {
		if s == SM {
			continue
		}
		r.Stamp[s] = base + int64(s)
	}
	return r
}

func TestNewRecordDefaults(t *testing.T) {
	r := NewRecord(3, 0x10, isa.OpLoad)
	if r.Seq != 3 || r.PC != 0x10 || r.Class != isa.OpLoad {
		t.Fatal("fields not set")
	}
	if r.FUProducer != -1 || r.PortProducer != -1 || r.MispredictFrom != -1 {
		t.Fatal("producers must default to -1")
	}
	for s := 0; s < NumStages; s++ {
		if r.Stamp[s] != NoStamp {
			t.Fatal("stamps must default to NoStamp")
		}
	}
}

func TestRecordValidate(t *testing.T) {
	r := validRecord(0, 10)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	// M may be absent; other stages may not.
	r.Stamp[SDC] = NoStamp
	if err := r.Validate(); err == nil {
		t.Fatal("missing DC must fail")
	}
	r = validRecord(0, 10)
	r.Stamp[SP] = r.Stamp[SI] - 5
	if err := r.Validate(); err == nil {
		t.Fatal("non-monotone stamps must fail")
	}
}

func TestRecordSpan(t *testing.T) {
	r := validRecord(0, 100)
	if got := r.Span(); got != int64(SC) {
		t.Fatalf("span %d", got)
	}
}

func TestTraceValidate(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 5; i++ {
		tr.Records = append(tr.Records, validRecord(i, int64(10*i)))
	}
	tr.Cycles = tr.Records[4].Stamp[SC] + 1
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// Out-of-order commits must fail.
	bad := *tr
	bad.Records = append([]Record(nil), tr.Records...)
	bad.Records[3].Stamp[SC] = 1000
	if err := bad.Validate(); err == nil {
		t.Fatal("commit reordering must fail validation")
	}

	// Sparse sequence numbers must fail.
	bad2 := *tr
	bad2.Records = append([]Record(nil), tr.Records...)
	bad2.Records[2].Seq = 7
	if err := bad2.Validate(); err == nil {
		t.Fatal("sparse seq must fail validation")
	}

	// Cycles earlier than the last commit must fail.
	bad3 := *tr
	bad3.Cycles = 1
	if err := bad3.Validate(); err == nil {
		t.Fatal("short Cycles must fail validation")
	}
}

// TestAppendResetReusesSlot: the simulator fills pooled record storage in
// place, so a recycled slot must come back exactly as NewRecord builds it,
// annotations and stamps included; past capacity the slice grows.
func TestAppendResetReusesSlot(t *testing.T) {
	recs := make([]Record, 1, 2)
	recs[0] = validRecord(0, 10)
	recs[0].SetResourceDeps(ResourceDep{Resource: uarch.ResROB, Producer: 3})
	recs[0].SetDataProducers(1, 2)
	recs = AppendReset(recs[:0], 5, 0x80, isa.OpStore)
	if len(recs) != 1 || cap(recs) != 2 || recs[0] != NewRecord(5, 0x80, isa.OpStore) {
		t.Fatalf("reused slot not reset: len=%d cap=%d rec=%+v", len(recs), cap(recs), recs[0])
	}
	recs = AppendReset(recs, 6, 0x84, isa.OpIntAlu)
	recs = AppendReset(recs, 7, 0x88, isa.OpIntAlu)
	if len(recs) != 3 || recs[2] != NewRecord(7, 0x88, isa.OpIntAlu) {
		t.Fatalf("appended slot wrong: len=%d rec=%+v", len(recs), recs[2])
	}
	if recs[2].HasStage(SF1) {
		t.Fatal("a reset record has no stage stamped")
	}
}

func TestTraceSpan(t *testing.T) {
	tr := &Trace{}
	if tr.Span() != 0 {
		t.Fatal("empty trace span must be 0")
	}
	tr.Records = append(tr.Records, validRecord(0, 10), validRecord(1, 20))
	if got, want := tr.Span(), tr.Records[1].Stamp[SC]-tr.Records[0].Stamp[SF1]; got != want {
		t.Fatalf("span %d, want %d", got, want)
	}
	if !tr.Records[0].HasStage(SF1) || tr.Records[0].HasStage(SM) {
		t.Fatal("HasStage disagrees with the stamps")
	}
}

func TestIPC(t *testing.T) {
	tr := &Trace{Cycles: 100}
	for i := 0; i < 50; i++ {
		tr.Records = append(tr.Records, validRecord(i, int64(i)))
	}
	if got := tr.IPC(); got != 0.5 {
		t.Fatalf("IPC %v", got)
	}
	empty := &Trace{}
	if empty.IPC() != 0 {
		t.Fatal("empty trace IPC must be 0")
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"F1", "F2", "F", "DC", "R", "DP", "I", "M", "P", "C"}
	for i, name := range want {
		if Stage(i).String() != name {
			t.Errorf("stage %d named %q", i, Stage(i))
		}
	}
}

// TestRecordLayout pins the record's size and checks that it stays
// self-contained: a record holds its annotations inline, so copying one
// copies all of it, and a pointer-bearing field would make pooled
// records alias storage they do not own.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 208 {
		t.Errorf("sizeof(Record) = %d, want 208", got)
	}
	if got := unsafe.Sizeof(ResourceDep{}); got != 8 {
		t.Errorf("sizeof(ResourceDep) = %d, want 8", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("Record%s is a %s: records must hold no pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("", reflect.TypeOf(Record{}))
}

func TestAnnotationRoundTrip(t *testing.T) {
	r := NewRecord(9, 0x40, isa.OpLoad)
	if len(r.ResourceDeps()) != 0 || len(r.DataProducers()) != 0 {
		t.Fatal("a new record must have no annotations")
	}
	deps := []ResourceDep{
		{Resource: uarch.ResROB, Producer: 1},
		{Resource: uarch.ResIQ, Producer: 2},
		{Resource: uarch.ResLQ, Producer: 3},
		{Resource: uarch.ResIntRF, Producer: 4},
	}
	r.SetResourceDeps(deps...)
	r.SetDataProducers(5, 6)
	if got := r.ResourceDeps(); !reflect.DeepEqual(got, deps) {
		t.Fatalf("resource deps %v, want %v", got, deps)
	}
	if got := r.DataProducers(); !reflect.DeepEqual(got, []int32{5, 6}) {
		t.Fatalf("data producers %v, want [5 6]", got)
	}
	// The setters replace, they do not append; a copy carries the
	// annotations with it.
	r.SetResourceDeps(deps[3])
	r.SetDataProducers(7)
	c := r
	r.SetDataProducers()
	if got := c.ResourceDeps(); len(got) != 1 || got[0] != deps[3] {
		t.Fatalf("replaced resource deps %v, want [%v]", got, deps[3])
	}
	if got := c.DataProducers(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("copied data producers %v, want [7]", got)
	}
	// The fingerprint prints the views as it printed the former slices.
	if got := fmt.Sprintf("%v %v", c.ResourceDeps(), c.DataProducers()); got != "[{IntRF 4}] [7]" {
		t.Fatalf("annotations print as %q", got)
	}

	// Reset clears both lists, also in a recycled slot.
	c.Reset(10, 0x44, isa.OpIntAlu)
	if c != NewRecord(10, 0x44, isa.OpIntAlu) {
		t.Fatal("Reset left state behind that NewRecord does not have")
	}
	if len(c.ResourceDeps()) != 0 || len(c.DataProducers()) != 0 {
		t.Fatal("Reset must clear both annotation lists")
	}
}

func TestAnnotationCapacityPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var r Record
	mustPanic("a fifth resource dependence", func() { r.SetResourceDeps(make([]ResourceDep, MaxResourceDeps+1)...) })
	mustPanic("a third data producer", func() { r.SetDataProducers(1, 2, 3) })
	if len(r.ResourceDeps()) != 0 || len(r.DataProducers()) != 0 {
		t.Fatal("a rejected setter must leave the record unchanged")
	}
}
