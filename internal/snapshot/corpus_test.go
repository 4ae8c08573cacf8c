package snapshot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eccspec/internal/golden"
)

// The format-compatibility corpus under testdata/ holds blobs captured
// by an earlier build of the simulator: seed 7, workload mcf,
// calibrated, after 600 closed-loop ticks (mcf-seed7-t600.snap), the
// same run 300 ticks later (mcf-seed7-t900.snap), and the same chip
// run under the since-removed adaptive-fidelity mode
// (mcf-seed7-t600-adaptive.snap). Restoring old blobs must keep
// working byte for byte, or fail with a clean error.

func readCorpus(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCorpusResumesByteIdentical restores the committed t600 blob, runs
// it 300 ticks and requires the capture to equal the committed t900
// blob byte for byte.
func TestCorpusResumesByteIdentical(t *testing.T) {
	sim, st, err := RestoreBlob(readCorpus(t, "mcf-seed7-t600.snap"))
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if st.Ticks != 600 {
		t.Fatalf("corpus blob is at tick %d, want 600", st.Ticks)
	}
	stepN(sim, 300)
	got, err := CaptureBlob(sim)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the JSON payloads so a mismatch reads as a line diff; the
	// envelopes differ exactly when the payloads do.
	want := readCorpus(t, "mcf-seed7-t900.snap")
	if d := golden.Diff(got[headerLen:], want[headerLen:]); d != "" {
		t.Fatalf("resumed corpus run diverged from mcf-seed7-t900.snap\n%s", d)
	}
}

// TestCorpusRejectsAdaptiveFidelity requires a blob of the removed
// adaptive-fidelity mode to fail Restore, naming the removal, instead
// of silently continuing at exact sampling.
func TestCorpusRejectsAdaptiveFidelity(t *testing.T) {
	blob := readCorpus(t, "mcf-seed7-t600-adaptive.snap")
	if _, err := Unmarshal(blob); err != nil {
		t.Fatalf("adaptive corpus blob must still decode: %v", err)
	}
	_, _, err := RestoreBlob(blob)
	if err == nil {
		t.Fatal("adaptive-fidelity blob restored without error")
	}
	if !strings.Contains(err.Error(), `"adaptive"`) || !strings.Contains(err.Error(), "removed") {
		t.Fatalf("restore error does not name the removed mode: %v", err)
	}
}
