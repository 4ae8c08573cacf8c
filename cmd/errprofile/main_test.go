package main

// Golden output of half a simulated second of the stress test at seed
// 1, captured before the specimen build's word selection was
// rewritten; the chip is built lazily (chip.New), so its profiles are
// scanned on first use by the tick path. Regenerate deliberately with:
//
//	go test ./cmd/errprofile -update-golden

import (
	"bytes"
	"flag"
	"testing"

	"eccspec/internal/golden"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden output from the current code")

func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	run([]string{"-seconds", "0.5"}, &out)
	golden.Check(t, "testdata/seconds0.5.golden", "errprofile -seconds 0.5 output", out.Bytes(), *updateGolden)
}
