package main

// Golden output of the per-core characterization at seed 1, captured
// before the specimen build's word selection was rewritten; the chip
// is built lazily (chip.New), so its profiles are scanned on first use
// by the tick path. Regenerate deliberately with:
//
//	go test ./cmd/sweep -update-golden

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
	run(nil, &out)
	golden.Check(t, "testdata/default.golden", "sweep output", out.Bytes(), *updateGolden)
}
