package main

// Golden outputs of the characterization commands at seed 1. They were
// captured before the specimen build's word selection and the fused
// calibration sweep were rewritten, and must stay byte-identical.
// calibrate covers the default low-voltage point, the high-voltage
// point and an aged chip, whose profiles come from the full per-cell
// scan; sweep and errprofile build the chip lazily (chip.New), so its
// profiles are scanned on first use by the tick path. Regenerate
// deliberately with:
//
//	go test ./cmd/eccspec -run Golden -update-golden

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

func TestCalibrateGolden(t *testing.T) {
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
			if err := calibrateCmd(c.args, &out); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "calibrate", c.name+".golden"),
				"calibrate "+strings.Join(c.args, " ")+" output", out.Bytes(), *updateGolden)
		})
	}
}

func TestSweepGolden(t *testing.T) {
	var out bytes.Buffer
	if err := sweepCmd(nil, &out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/sweep/default.golden", "sweep output", out.Bytes(), *updateGolden)
}

func TestErrprofileGolden(t *testing.T) {
	var out bytes.Buffer
	if err := errprofileCmd([]string{"-seconds", "0.5"}, &out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/errprofile/seconds0.5.golden", "errprofile -seconds 0.5 output", out.Bytes(), *updateGolden)
}
