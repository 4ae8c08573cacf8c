package golden

import (
	"strings"
	"testing"
)

func TestDiffEqual(t *testing.T) {
	if d := Diff([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Fatalf("identical inputs reported a difference:\n%s", d)
	}
}

func TestDiffLocatesFirstDifference(t *testing.T) {
	want := "l1\nl2\nl3\nl4 same\nl5\nl6\nl7\n"
	got := "l1\nl2\nl3\nl4 SAME\nl5\nl6\nl7\n"
	d := Diff([]byte(got), []byte(want))
	for _, s := range []string{
		"first difference at byte 12 (line 4, column 4); got 26 bytes, want 26",
		`>    4 | "l4 SAME"`,
		`>    4 | "l4 same"`,
		`     2 | "l2"`,
		`     6 | "l6"`,
	} {
		if !strings.Contains(d, s) {
			t.Errorf("diff lacks %q:\n%s", s, d)
		}
	}
	if strings.Contains(d, `"l1"`) || strings.Contains(d, `"l7"`) {
		t.Errorf("diff shows lines beyond its context window:\n%s", d)
	}
}

func TestDiffTruncation(t *testing.T) {
	d := Diff([]byte("a,b\nc,d\n"), []byte("a,b\nc,d\ne,f\n"))
	if !strings.Contains(d, "first difference at byte 8 (line 3, column 1); got 8 bytes, want 12") {
		t.Fatalf("truncated output misreported:\n%s", d)
	}
	if !strings.Contains(d, `>    3 | "e,f"`) {
		t.Fatalf("diff lacks the missing line:\n%s", d)
	}
}
