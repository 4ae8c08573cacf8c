package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eccspec/internal/fleet"
	"eccspec/internal/store"
)

// crashJobs is the crash-point workload: two chips sampled every tick,
// then one untraced chip, each over a 100-tick window that the
// checkpoint interval below cuts four times.
var crashJobs = []string{
	`{"seeds":[61,62],"workload":"gcc","seconds":0.1,"trace_every":1}`,
	`{"seeds":[63],"workload":"gcc","seconds":0.1}`,
}

const crashCheckpointEvery = 20

// serve runs one request against the handler and renders the response
// as its status line plus body, so a comparison covers both.
func serve(t *testing.T, h http.Handler, method, path, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return fmt.Sprintf("HTTP %d\n%s", rec.Code, rec.Body.String())
}

// finishOver opens the store in dir and a daemon over it, submits every
// job of bodies the journal does not hold yet (a job's id is its
// position in bodies), lets the daemon finish them all, and returns each
// job's /results and /trace responses.
func finishOver(t *testing.T, dir string, bodies []string) []string {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	held := len(st.Jobs())
	s := newServer(fleet.New(fleet.Config{Workers: 2}), serverConfig{
		store:           st,
		checkpointEvery: crashCheckpointEvery,
	})
	for _, body := range bodies[held:] {
		if got := serve(t, s.Handler(), http.MethodPost, "/v1/fleets", body); !strings.HasPrefix(got, "HTTP 202") {
			t.Fatalf("submit %s: %s", body, got)
		}
	}
	s.beginDrain()
	<-s.drained()
	var out []string
	for i := range bodies {
		id := fmt.Sprintf("/v1/fleets/f-%d", i+1)
		out = append(out,
			serve(t, s.Handler(), http.MethodGet, id+"/results", ""),
			serve(t, s.Handler(), http.MethodGet, id+"/trace", ""))
	}
	return out
}

// TestCrashPointEnumeration checks the journal at every durable
// boundary, not one hand-picked kill point: it runs the workload once,
// uninterrupted, then for every prefix of the journal that ends on a
// record boundary it restarts a daemon over that prefix and lets it
// finish. Every restart must serve /results and /trace byte for byte as
// the uninterrupted run did.
func TestCrashPointEnumeration(t *testing.T) {
	dir := t.TempDir()
	want := finishOver(t, dir, crashJobs)
	journal, err := os.ReadFile(filepath.Join(dir, store.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journal, []byte(`"t":"ckpt"`)); n < 3*(100/crashCheckpointEvery-1) {
		t.Fatalf("journal holds %d checkpoints; the crash points would not cover resumption", n)
	}

	var cuts []int
	for off := 0; off < len(journal); {
		cuts = append(cuts, off)
		off += bytes.IndexByte(journal[off:], '\n') + 1
	}
	cuts = append(cuts, len(journal))
	for _, cut := range cuts {
		prefix := t.TempDir()
		if err := os.WriteFile(filepath.Join(prefix, store.JournalName), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := finishOver(t, prefix, crashJobs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("restart over the journal's first %d bytes serves a different %s:\nuninterrupted:\n%s\nrestarted:\n%s",
					cut, []string{"/results", "/trace"}[i%2], want[i], got[i])
			}
		}
	}
}
