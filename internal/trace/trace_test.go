package trace

import (
	"strings"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder("vdd", "errRate")
	r.Add(0, 0.8, 0.01)
	r.Add(1, 0.795, 0.02)
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
	if r.Time(1) != 1 || r.Value(1, 0) != 0.795 {
		t.Fatal("sample access mismatch")
	}
	got := r.Column("errRate")
	if len(got) != 2 || got[0] != 0.01 || got[1] != 0.02 {
		t.Fatalf("column %v", got)
	}
	cols := r.Columns()
	if len(cols) != 2 || cols[0] != "vdd" {
		t.Fatalf("columns %v", cols)
	}
}

func TestRecorderPanicsOnColumnMismatch(t *testing.T) {
	r := NewRecorder("a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Add(0, 1.0)
}

func TestRecorderPanicsOnUnknownColumn(t *testing.T) {
	r := NewRecorder("a")
	r.Add(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Column("nope")
}

func TestNewRecorderPanicsWithoutColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecorder()
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder("v")
	r.Add(0.5, 0.8)
	r.Add(1.5, 0.75)
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "time,v\n0.5,0.8\n1.5,0.75\n"
	if sb.String() != want {
		t.Fatalf("csv %q want %q", sb.String(), want)
	}
}

func TestColumnsCopyIsolated(t *testing.T) {
	r := NewRecorder("a", "b")
	cols := r.Columns()
	cols[0] = "mutated"
	if r.Columns()[0] != "a" {
		t.Fatal("Columns exposed internal state")
	}
}

func TestDownsample(t *testing.T) {
	r := NewRecorder("x")
	for i := 0; i < 10; i++ {
		r.Add(float64(i), float64(i)*2)
	}
	d := r.Downsample(3)
	if d.Len() != 4 { // samples 0,3,6,9
		t.Fatalf("downsampled len %d", d.Len())
	}
	if d.Time(1) != 3 || d.Value(1, 0) != 6 {
		t.Fatal("downsample kept wrong rows")
	}
	if r.Downsample(0).Len() != 10 {
		t.Fatal("k<=1 should copy all samples")
	}
}

// TestTimesAndRowAreCapped checks that the aliasing views end at their
// sample: appending to one cannot overwrite samples the recorder added
// later into room Grow reserved.
func TestTimesAndRowAreCapped(t *testing.T) {
	r := NewRecorder("a", "b")
	r.Grow(4)
	r.Add(0, 1, 2)
	times, row := r.Times(), r.Row(0)
	r.Add(1, 3, 4)
	_ = append(times, 99)
	_ = append(row, 99, 99)
	if r.Time(1) != 1 || r.Value(1, 0) != 3 || r.Value(1, 1) != 4 {
		t.Fatalf("sample 1 = (%v, %v, %v), want (1, 3, 4)", r.Time(1), r.Value(1, 0), r.Value(1, 1))
	}
	if len(times) != 1 || len(row) != 2 {
		t.Fatalf("views grew with the recorder: %d times, %d values", len(times), len(row))
	}
}
