// Package trace records named time series during simulation runs and
// renders them as CSV or aligned text, supporting the paper's
// trace-style figures (supply voltage and error rate over time,
// Figs. 12 and 14).
package trace

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Recorder accumulates rows of (time, columns...) samples.
type Recorder struct {
	columns []string
	times   []float64
	// vals holds the samples row-major: sample i's values are
	// vals[i*len(columns) : (i+1)*len(columns)]. One slice instead of
	// one per row keeps a long trace to its values alone.
	vals []float64
}

// NewRecorder creates a recorder with the given value column names (the
// time column is implicit).
func NewRecorder(columns ...string) *Recorder {
	if len(columns) == 0 {
		panic("trace: recorder needs at least one column")
	}
	return &Recorder{columns: append([]string(nil), columns...)}
}

// Columns returns the value column names.
func (r *Recorder) Columns() []string { return append([]string(nil), r.columns...) }

// Add appends one sample. The number of values must match the column
// count.
func (r *Recorder) Add(t float64, values ...float64) {
	if len(values) != len(r.columns) {
		panic(fmt.Sprintf("trace: %d values for %d columns", len(values), len(r.columns)))
	}
	r.times = append(r.times, t)
	r.vals = append(r.vals, values...)
}

// Grow reserves room for n more samples, so a caller that knows the
// final row count sizes the recorder once, exactly.
func (r *Recorder) Grow(n int) {
	r.times = slices.Grow(r.times, n)
	r.vals = slices.Grow(r.vals, n*len(r.columns))
}

// Len returns the number of recorded samples.
func (r *Recorder) Len() int { return len(r.times) }

// Time returns the timestamp of sample i.
func (r *Recorder) Time(i int) float64 { return r.times[i] }

// Value returns column col of sample i.
func (r *Recorder) Value(i, col int) float64 { return r.Row(i)[col] }

// Times returns every sample's timestamp. The slice aliases the
// recorder's storage, so callers must not modify it; samples added
// later do not show in it.
func (r *Recorder) Times() []float64 { return r.times[:len(r.times):len(r.times)] }

// Row returns sample i's values in column order. Like Times, the slice
// aliases the recorder's storage and must not be modified.
func (r *Recorder) Row(i int) []float64 {
	n := len(r.columns)
	return r.vals[i*n : (i+1)*n : (i+1)*n]
}

// Column returns the full series of one column by name. It panics on an
// unknown name.
func (r *Recorder) Column(name string) []float64 {
	for c, n := range r.columns {
		if n == name {
			out := make([]float64, len(r.times))
			for i := range out {
				out[i] = r.Value(i, c)
			}
			return out
		}
	}
	panic("trace: unknown column " + name)
}

// WriteCSV emits the series as CSV with a header row.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time,%s\n", strings.Join(r.columns, ",")); err != nil {
		return err
	}
	for i := range r.times {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%g", r.times[i])
		for _, v := range r.Row(i) {
			fmt.Fprintf(&sb, ",%g", v)
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// Downsample returns a recorder keeping every k-th sample (useful when
// rendering long runs compactly). k <= 1 returns a copy.
func (r *Recorder) Downsample(k int) *Recorder {
	if k <= 1 {
		k = 1
	}
	out := NewRecorder(r.columns...)
	out.Grow((len(r.times) + k - 1) / k)
	for i := 0; i < len(r.times); i += k {
		out.Add(r.times[i], r.Row(i)...)
	}
	return out
}
