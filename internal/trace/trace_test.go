package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Addr:  rng.Uint64() &^ 63, // line aligned
			GapNS: rng.Uint32() % 100000,
			Op:    Op(rng.Intn(2)),
			CPU:   uint8(rng.Intn(4)),
		}
	}
	return recs
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "R" || OpWrite.String() != "W" {
		t.Errorf("Op strings = %q/%q, want R/W", OpRead, OpWrite)
	}
}

func TestRecordPage(t *testing.T) {
	r := Record{Addr: 4096*7 + 128}
	if got := r.Page(4096); got != 7 {
		t.Errorf("Page = %d, want 7", got)
	}
}

func TestSliceSource(t *testing.T) {
	recs := randomRecords(10, 1)
	src := NewSliceSource(recs)
	got, err := Materialize(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("Materialize over SliceSource did not round-trip")
	}
	// Exhausted source stays exhausted.
	if _, ok := src.Next(); ok {
		t.Error("exhausted source returned a record")
	}
	src.Reset()
	if r, ok := src.Next(); !ok || r != recs[0] {
		t.Error("Reset did not rewind")
	}
}

func TestMaterializeLimit(t *testing.T) {
	recs := randomRecords(10, 2)
	got, err := Materialize(NewSliceSource(recs), 4)
	if err != ErrTruncated {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	if len(got) != 4 {
		t.Errorf("len = %d, want 4", len(got))
	}
	// Limit exactly at length should not report truncation.
	got, err = Materialize(NewSliceSource(recs), 10)
	if err != nil || len(got) != 10 {
		t.Errorf("exact limit: len=%d err=%v, want 10, nil", len(got), err)
	}
}

func TestConcatAndLimit(t *testing.T) {
	a := randomRecords(3, 3)
	b := randomRecords(2, 4)
	src := Concat(NewSliceSource(a), NewSliceSource(b))
	got, _ := Materialize(src, 0)
	want := append(append([]Record{}, a...), b...)
	if !reflect.DeepEqual(got, want) {
		t.Error("Concat order wrong")
	}
	got, _ = Materialize(Limit(Concat(NewSliceSource(a), NewSliceSource(b)), 4), 0)
	if len(got) != 4 {
		t.Errorf("Limit len = %d, want 4", len(got))
	}
}

func TestFilter(t *testing.T) {
	recs := []Record{{Op: OpRead}, {Op: OpWrite}, {Op: OpRead}}
	got, _ := Materialize(Filter(NewSliceSource(recs), func(r Record) bool {
		return r.Op == OpWrite
	}), 0)
	if len(got) != 1 || got[0].Op != OpWrite {
		t.Errorf("Filter kept %v", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := randomRecords(1000, 5)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	n, err := WriteAll(w, NewSliceSource(recs))
	if err != nil || n != 1000 {
		t.Fatalf("WriteAll = %d, %v", n, err)
	}
	r := NewReader(&buf)
	got, err := Materialize(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("binary round-trip mismatch")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addr uint64, gap uint32, op, cpu uint8) bool {
		rec := Record{Addr: addr, GapNS: gap, Op: Op(op % 2), CPU: cpu}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(rec); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).Read()
		return err == nil && got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	r := NewReader(bytes.NewBufferString("NOTATRACE-------"))
	if _, err := r.Read(); err == nil {
		t.Error("expected bad-magic error")
	}
	if r.Err() == nil {
		t.Error("Err should report bad magic")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	got, err := Materialize(r, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace: %d records, err %v", len(got), err)
	}
	if r.Err() != nil {
		t.Errorf("empty trace Err = %v, want nil", r.Err())
	}
}

func TestTextRoundTrip(t *testing.T) {
	recs := randomRecords(50, 6)
	var buf bytes.Buffer
	if _, err := WriteText(&buf, NewSliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	tr := NewTextReader(&buf)
	got, _ := Materialize(tr, 0)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if !reflect.DeepEqual(got, recs) {
		t.Error("text round-trip mismatch")
	}
}

func TestTextReaderSkipsCommentsAndBlank(t *testing.T) {
	input := "# a comment\n\nR 0x00001000 gap=5 cpu=1\n  \nW 0x00002000 gap=0 cpu=0\n"
	tr := NewTextReader(bytes.NewBufferString(input))
	got, _ := Materialize(tr, 0)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if len(got) != 2 || got[0].Op != OpRead || got[1].Op != OpWrite {
		t.Errorf("got %v", got)
	}
	if got[0].Addr != 0x1000 || got[0].GapNS != 5 || got[0].CPU != 1 {
		t.Errorf("record fields wrong: %+v", got[0])
	}
}

func TestParseTextLineErrors(t *testing.T) {
	for _, line := range []string{
		"", "R", "X 0x1 gap=0 cpu=0", "R zzz gap=0 cpu=0",
		"R 0x1 gap=x cpu=0", "R 0x1 gap=0 cpu=x", "R 0x1 gap=0 cpu=0 extra",
	} {
		if _, err := ParseTextLine(line); err == nil {
			t.Errorf("ParseTextLine(%q) = nil error", line)
		}
	}
}

func TestStats(t *testing.T) {
	recs := []Record{
		{Addr: 0, Op: OpRead, GapNS: 10},
		{Addr: 100, Op: OpWrite, GapNS: 20},
		{Addr: 4096, Op: OpRead, GapNS: 30},
		{Addr: 8192, Op: OpRead, GapNS: 0},
	}
	s := CollectStats(NewSliceSource(recs), 4096)
	if s.Reads != 3 || s.Writes != 1 || s.Total() != 4 {
		t.Errorf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	if s.FootprintPages() != 3 {
		t.Errorf("footprint = %d, want 3", s.FootprintPages())
	}
	if s.WorkingSetKB() != 12 {
		t.Errorf("WSS = %dKB, want 12", s.WorkingSetKB())
	}
	if s.TotalGapNS != 60 {
		t.Errorf("gap = %v, want 60", s.TotalGapNS)
	}
	if s.ReadFraction() != 0.75 || s.WriteFraction() != 0.25 {
		t.Errorf("fractions = %v/%v", s.ReadFraction(), s.WriteFraction())
	}
}

func TestStatsEmpty(t *testing.T) {
	s := NewStats(4096)
	if s.ReadFraction() != 0 || s.WriteFraction() != 0 || s.Total() != 0 {
		t.Error("empty stats should be zero")
	}
}

// lengthSource is a SliceSource that reports a (possibly wrong) length.
type lengthSource struct {
	*SliceSource
	n int64
}

func (s lengthSource) TotalAccesses() int64 { return s.n }

// TestMaterializePresized checks a source reporting its length gets one
// allocation of that size and the same records, and that a hint which is
// wrong, or beyond the limit, changes neither the records nor truncation.
func TestMaterializePresized(t *testing.T) {
	recs := randomRecords(10, 4)
	got, err := Materialize(lengthSource{NewSliceSource(recs), 10}, 0)
	if err != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("sized source: err=%v, records differ=%v", err, !reflect.DeepEqual(got, recs))
	}
	if cap(got) != 10 {
		t.Errorf("cap = %d, want 10 (one allocation)", cap(got))
	}
	for _, hint := range []int64{-1, 0, 3, 25} {
		got, err := Materialize(lengthSource{NewSliceSource(recs), hint}, 0)
		if err != nil || !reflect.DeepEqual(got, recs) {
			t.Errorf("hint %d: err=%v, records differ=%v", hint, err, !reflect.DeepEqual(got, recs))
		}
	}
	got, err = Materialize(lengthSource{NewSliceSource(recs), 10}, 4)
	if err != ErrTruncated || !reflect.DeepEqual(got, recs[:4]) || cap(got) != 4 {
		t.Errorf("limit 4: err=%v len=%d cap=%d", err, len(got), cap(got))
	}
}
