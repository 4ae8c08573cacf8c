package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"eccspec/internal/fleet"
)

// FuzzJournalRecover throws arbitrary bytes at the journal replay path:
// Open must never panic and must always come back in a usable state
// (the journal it leaves behind must itself replay cleanly).
func FuzzJournalRecover(f *testing.F) {
	// Seed the corpus with real journal captures plus classic tails.
	dir := f.TempDir()
	st, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	if err := st.AddJob(1, fleet.Job{Seeds: []uint64{5, 6}, Seconds: 0.1, Workload: "stress-test"}); err != nil {
		f.Fatal(err)
	}
	if err := st.RecordChip(1, ChipRecord{Seed: 5, NominalV: 0.9, AvgReduction: 0.08, DomainVdd: []float64{0.81}, Ticks: 100}); err != nil {
		f.Fatal(err)
	}
	if err := st.MarkJobDone(1, 1700000000); err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	capture, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(capture)
	// A journal of delta checkpoints and a tail chip record, whole and
	// with its last checkpoint torn mid-blob.
	traced := f.TempDir()
	writeTracedJournal(f, traced)
	deltas, err := os.ReadFile(filepath.Join(traced, JournalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(deltas)
	f.Add(deltas[:bytes.LastIndex(deltas, []byte(`"t":"ckpt"`))+400])
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), capture...), `{"t":"chip","job":1,"chip":{"se`...))
	f.Add([]byte("{\"t\":\"job\",\"job\":1}\n{\"t\":\"done\",\"job\":1}\n"))
	f.Add([]byte{0xFF, 0x00, 0x13, 0x37, '\n'})

	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			// Rejecting the journal outright is acceptable; crashing
			// or wedging is not.
			return
		}
		// Whatever survived replay must still accept writes...
		id := uint64(1 << 62) // clear of any fuzz-recovered ids
		if err := s.AddJob(id, fleet.Job{Seeds: []uint64{9}, Seconds: 0.1}); err != nil {
			t.Fatalf("recovered store rejected a fresh job: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// ...and the truncated/repaired journal must replay cleanly.
		r, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("journal written by recovery failed to replay: %v", err)
		}
		found := false
		for _, j := range r.Jobs() {
			if j.ID == id {
				found = true
			}
		}
		if !found {
			t.Fatal("job appended after recovery was lost")
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
