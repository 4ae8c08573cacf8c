package experiments

// Golden outputs for every registered experiment (seed 1, fast mode).
// The paper tables were captured before the control loop was refactored
// onto the speculation-policy registry (internal/policy), uncorespec
// before the uncore rail was folded into the core domains' control path,
// and the remaining experiments before every closed-loop cell was built
// through one constructor; all prove that a refactor kept every
// simulated decision: rendering a different byte here means it changed
// one. An experiment registered without a golden fails.
//
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenPaperTables -update-golden

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"

	"eccspec/internal/golden"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden experiment tables from the current code")

func TestGoldenPaperTables(t *testing.T) {
	for _, e := range All() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := runFor(t, id).Write(&buf); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "golden", id+".golden"),
				id+" output", buf.Bytes(), *updateGolden)
		})
	}
}
