// Package golden compares test output with committed golden files and
// reports a mismatch readably: the first differing byte, its line and
// column, and a few lines of context from each side, rather than both
// files whole (a multi-kilobyte trace CSV dumped twice shows nothing).
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// contextLines is how many lines around the first difference Diff
// shows from each side.
const contextLines = 2

// Check compares got with the golden file at path and fails t on any
// difference, describing it with Diff; what names the output in the
// failure message. With update set it rewrites the file from got
// instead.
func Check(t testing.TB, path, what string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	if d := Diff(got, want); d != "" {
		t.Fatalf("%s diverged from %s\n%s", what, path, d)
	}
}

// Diff returns "" when got and want are byte-identical. Otherwise it
// names the first differing byte offset with its 1-based line and
// column, both lengths, and the lines around that point from each side,
// the differing line marked with '>'.
func Diff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	off := 0
	for off < len(got) && off < len(want) && got[off] == want[off] {
		off++
	}
	line := bytes.Count(got[:off], []byte("\n"))
	col := off - (bytes.LastIndexByte(got[:off], '\n') + 1)
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at byte %d (line %d, column %d); got %d bytes, want %d\n",
		off, line+1, col+1, len(got), len(want))
	for _, side := range []struct {
		name string
		data []byte
	}{{"got", got}, {"want", want}} {
		lines := strings.Split(string(side.data), "\n")
		lo, hi := max(line-contextLines, 0), min(line+contextLines+1, len(lines))
		fmt.Fprintf(&b, "--- %s ---\n", side.name)
		for i := lo; i < hi; i++ {
			mark := ' '
			if i == line {
				mark = '>'
			}
			fmt.Fprintf(&b, "%c%5d | %q\n", mark, i+1, lines[i])
		}
	}
	return b.String()
}
