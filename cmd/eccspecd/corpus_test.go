package main

import (
	"os"
	"path/filepath"
	"testing"

	"eccspec/internal/store"
)

// legacyCorpus is a journal written by the daemon before traced
// checkpoints carried their rows in a binary section: every blob in it
// embeds its partial trace as JSON. It holds two jobs, submitted
// together with a checkpoint interval of 20 ticks:
//
//   - f-1, `{"seeds":[71,72],"workload":"mcf","seconds":0.05,"trace_every":1}`,
//     completed, its superseded checkpoints still in the journal;
//   - f-2, `{"seeds":[73,74],"workload":"gcc","seconds":0.1,"trace_every":2}`,
//     cut short: seed 73 finished, seed 74 stopped after its checkpoint
//     at tick 40.
//
// The f-*.results.json and f-*.trace.csv files beside it are what the
// same build served for each job (status line, then body) once it had
// resumed f-2 from that journal.
var legacyCorpus = filepath.Join("..", "..", "internal", "store", "testdata", "legacy-traced")

// TestLegacyJournalCorpus requires a daemon over the legacy journal to
// serve the completed job from its records and to resume the
// unfinished one, both to the captured responses byte for byte.
func TestLegacyJournalCorpus(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join(legacyCorpus, store.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.JournalName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	got := finishOver(t, dir, make([]string, 2))
	for i, name := range []string{"f-1.results.json", "f-1.trace.csv", "f-2.results.json", "f-2.trace.csv"} {
		want, err := os.ReadFile(filepath.Join(legacyCorpus, name))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != string(want) {
			t.Errorf("%s differs from the legacy capture:\nwant:\n%s\ngot:\n%s", name, want, got[i])
		}
	}
}
