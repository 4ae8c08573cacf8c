package main

import (
	"hash/fnv"
	"math/rand"

	"eccspec/internal/workload"
)

// inputs draws every generated input of one workload run from the run's
// seed: chip seeds, Table II workloads, windows and the job mix. The
// program under test only ever sees the generated values.
type inputs struct {
	rng  *rand.Rand
	used map[uint64]bool
}

// newInputs derives an independent stream per purpose, so adding draws
// to one stream never shifts another.
func newInputs(seed uint64, purpose string) *inputs {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	return &inputs{rng: rand.New(rand.NewSource(int64(seed ^ h.Sum64()))), used: make(map[uint64]bool)}
}

// chipSeeds returns n chip specimen seeds never drawn before from this
// stream.
func (in *inputs) chipSeeds(n int) []uint64 {
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := uint64(in.rng.Int63n(1 << 40))
		if !in.used[s] {
			in.used[s] = true
			out = append(out, s)
		}
	}
	return out
}

// tableII returns the paper's Table II workloads (CoreMark, SPECjbb2005,
// SPECint and SPECfp) in a seeded order.
func (in *inputs) tableII() []string {
	var names []string
	suites := workload.Suites()
	for _, suite := range workload.SuiteNames() {
		for _, p := range suites[suite] {
			names = append(names, p.Name)
		}
	}
	in.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// perm returns a seeded permutation of 0..n-1.
func (in *inputs) perm(n int) []int { return in.rng.Perm(n) }

// intn draws from [0, n).
func (in *inputs) intn(n int) int { return in.rng.Intn(n) }
