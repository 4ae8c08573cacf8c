package main

// Golden /v1/fleets responses. The files were captured before the
// control loop was refactored onto the speculation-policy registry
// (internal/policy): a default-policy fleet must keep serving /results
// and /trace byte-for-byte as it did pre-refactor. The results JSON is
// compared after stripping the wall-clock status line; the trace CSV is
// compared raw.
//
// Regenerate deliberately with:
//
//	go test ./cmd/eccspecd -run TestGoldenFleetEndpoints -update-golden

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"eccspec/internal/golden"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden fleet endpoint captures from the current code")

// goldenFleetBody is the pinned submission: two specimens, a short
// closed-loop run, sparse tracing. Small enough to simulate in seconds,
// rich enough that every per-chip field and the trace CSV have content.
const goldenFleetBody = `{"seeds":[1,2],"workload":"mcf","seconds":0.05,"trace_every":10}`

// canonicalResults strips the fields that carry no simulation output:
// the daemon's own status string, and the policy echo the response
// gained after the goldens were captured (default-policy metadata, not
// simulated bytes).
func canonicalResults(t *testing.T, raw []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("results JSON: %v", err)
	}
	delete(m, "status")
	delete(m, "policy")
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestGoldenFleetEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	code, st := postFleet(t, ts, goldenFleetBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %v", code, st)
	}
	id := st["id"].(string)
	waitDone(t, ts, id)

	fetch := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	golden.Check(t, filepath.Join("testdata", "golden", "results.json"), "results.json",
		canonicalResults(t, fetch("/v1/fleets/"+id+"/results")), *updateGolden)
	golden.Check(t, filepath.Join("testdata", "golden", "trace.csv"), "trace.csv",
		fetch("/v1/fleets/"+id+"/trace"), *updateGolden)
}
