package main

// Golden outputs of the weak-line map, captured before the specimen
// build's word selection and the fused calibration sweep were rewritten:
// the default low-voltage point, the high-voltage point and an aged
// chip, whose profiles come from the full per-cell scan. Regenerate
// deliberately with:
//
//	go test ./cmd/calibrate -update-golden

import (
	"bytes"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"eccspec/internal/golden"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden outputs from the current code")

func TestGoldenOutput(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"high", []string{"-high"}},
		{"aged20000", []string{"-aged", "20000"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", c.name+".golden"),
				"calibrate "+strings.Join(c.args, " ")+" output", out.Bytes(), *updateGolden)
		})
	}
}
