package experiments

// Golden outputs for every paper-numbered experiment table and for the
// uncore-speculation extension. The paper tables were captured before
// the control loop was refactored onto the speculation-policy registry
// (internal/policy), and uncorespec before the uncore rail was folded
// into the core domains' control path; both prove that a refactor kept
// every simulated decision: rendering a different byte here means it
// changed one.
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

// goldenIDs are the reproductions whose rendered output is pinned: the
// tables and figures of the source paper's evaluation, and the uncore
// extension.
var goldenIDs = []string{
	"fig1", "fig2", "fig3", "fig4", "tab1", "tab2",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18", "uncorespec",
}

func TestGoldenPaperTables(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q is not registered", id)
			}
			res, err := e.Run(Options{Seed: 1, Fast: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Write(&buf); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "golden", id+".golden"),
				id+" output", buf.Bytes(), *updateGolden)
		})
	}
}
