package snapshot

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"eccspec"
	"eccspec/internal/trace"
)

// tracedBlob captures sim with a trace of rows synthetic samples.
func tracedBlob(t testing.TB, sim *eccspec.Simulator, rows int) []byte {
	t.Helper()
	rec := trace.NewRecorder("vdd_mean_v", "vdd_min_v", "err_rate", "power_w")
	for i := 0; i < rows; i++ {
		x := float64(i)
		rec.Add(x/1000, 0.8-x/1e5, 0.79-x/1e5, x/3e4, 30+x/7)
	}
	st, err := Capture(sim)
	if err != nil {
		t.Fatal(err)
	}
	st.Trace = CaptureTrace(rec)
	blob, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTracedBlobRoundTrip checks that a traced blob keeps its state JSON
// as an untraced capture writes it and decodes back to the same trace.
func TestTracedBlobRoundTrip(t *testing.T) {
	sim := newCalibrated(t, 3, 20)
	blob := tracedBlob(t, sim, 50)
	plain, err := CaptureBlob(sim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(blob, []byte(tracedMagic)) || !bytes.Equal(blob[len(tracedMagic):len(plain)], plain[len(Magic):]) {
		t.Fatal("traced blob does not carry the untraced blob's header fields and state")
	}
	st, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || st.Trace.From != 0 || len(st.Trace.Times) != 50 {
		t.Fatalf("decoded trace %+v, want 50 rows from 0", st.Trace)
	}
	again, err := Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("traced blob does not survive a decode/encode cycle byte-identically")
	}
	if _, _, err := RestoreBlob(blob); err != nil {
		t.Fatalf("traced blob does not restore: %v", err)
	}
}

// TestTracedTailAndFold cuts a blob's rows into a delta and joins them
// back: the fold must equal the whole blob byte for byte, and a delta's
// trace must refuse to restore alone.
func TestTracedTailAndFold(t *testing.T) {
	sim := newCalibrated(t, 3, 20)
	early, err := SplitTraced(tracedBlob(t, sim, 30))
	if err != nil {
		t.Fatal(err)
	}
	wholeBlob := tracedBlob(t, sim, 50)
	whole, err := SplitTraced(wholeBlob)
	if err != nil {
		t.Fatal(err)
	}
	deltaBlob, err := whole.Tail(30)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := SplitTraced(deltaBlob)
	if err != nil {
		t.Fatal(err)
	}
	if delta.From != 30 || delta.N != 20 {
		t.Fatalf("delta holds rows [%d, %d), want [30, 50)", delta.From, delta.End())
	}
	folded, err := early.Fold(delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(folded, wholeBlob) {
		t.Fatal("folding the delta onto the earlier blob does not give the whole blob")
	}
	// A fold that overlaps keeps the base's rows before the delta's.
	if folded, err := whole.Fold(delta); err != nil || !bytes.Equal(folded, wholeBlob) {
		t.Fatalf("overlapping fold: %v", err)
	}
	short, _ := SplitTraced(tracedBlob(t, sim, 20))
	if _, err := short.Fold(delta); err == nil {
		t.Fatal("folded a delta that starts past the base's rows")
	}

	st, err := Unmarshal(deltaBlob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Trace.RestoreTrace(); err == nil || !strings.Contains(err.Error(), "starts at row 30") {
		t.Fatalf("a delta's trace restored alone: %v", err)
	}
	full, err := Unmarshal(wholeBlob)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := JoinTrace(tracedBlob(t, sim, 30), full.Trace.Tail(30))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(joined, full.Trace) {
		t.Fatal("joining a tail onto the earlier blob does not give the whole trace")
	}
}

// TestTracedSectionRejectsCorruption truncates and mangles the trace
// section: every case must return a clean error, never a panic.
func TestTracedSectionRejectsCorruption(t *testing.T) {
	blob := tracedBlob(t, newCalibrated(t, 11, 20), 10)
	whole, err := SplitTraced(blob)
	if err != nil {
		t.Fatal(err)
	}
	sec := whole.section
	flip := func(at int) func([]byte) []byte {
		return func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[at] ^= 0x08
			return c
		}
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"no section", func(b []byte) []byte { return b[:sec] }, "truncated"},
		{"torn section head", func(b []byte) []byte { return b[:sec+7] }, "truncated"},
		{"torn row", func(b []byte) []byte { return b[:len(b)-5] }, "CRC"},
		{"row bit flip", flip(len(blob) - 12), "CRC"},
		{"from flip", flip(sec + 4), "CRC"},
		{"row count flip", flip(sec + 8), "CRC"},
		{"section CRC flip", flip(sec), "CRC"},
		{"state flip", flip(headerLen + 3), "CRC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(blob)
			if _, err := Unmarshal(b); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Unmarshal: %v, want an error mentioning %q", err, tc.wantSub)
			}
			if _, _, err := RestoreBlob(b); err == nil {
				t.Fatal("RestoreBlob accepted a corrupt blob")
			}
		})
	}
}
