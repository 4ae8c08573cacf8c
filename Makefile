# Tier-1 verification plus the concurrency-sensitive targets that the
# fleet engine and eccspecd daemon make load-bearing.

GO ?= go

# Stamp binaries with the checkout's version; `go install`ed builds fall
# back to runtime/debug.ReadBuildInfo inside internal/version.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X eccspec/internal/version.version=$(VERSION)"

.PHONY: verify build test bench-checks race vet bench bench-snapshot staticcheck chaos fuzz-smoke cluster-smoke cluster-chaos load-smoke all

all: verify

# Tier-1: the whole tree builds and every test passes, the benchmark's
# own checks included (eccbench is a module of its own, so the root
# `go test ./...` does not reach it).
verify: build test bench-checks

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

bench-checks:
	cd eccbench && $(GO) test ./...

# The concurrent packages under the race detector, plus the run loop
# they are built on (root Simulator and internal/engine).
race:
	$(GO) test -race . ./internal/engine/... ./internal/fleet/... ./internal/cluster/... ./internal/admission/... ./internal/loadtest/... ./cmd/eccspecd/...

# Cluster smoke: one coordinator + two worker daemons on localhost, one
# worker SIGKILLed mid-job, merged results diffed byte-for-byte against
# a single-node run. Writes a BENCH_cluster.json throughput snapshot.
cluster-smoke:
	ECCSPEC_BENCH_OUT=$(CURDIR)/BENCH_cluster.json \
		$(GO) test ./cmd/eccspecd/ -run TestClusterWorkerKillByteIdenticalResults -count=1 -v

# Cluster network chaos: one coordinator + two worker daemons with a
# seeded net-fault plan (partition window, torn stream, duplicated
# stream, slow link) armed on the coordinator's RPC transport, plus the
# quarantine-and-recover breaker scenario; merged results are diffed
# byte-for-byte against a single-node run and every daemon must exit
# clean. Refreshes the BENCH_cluster.json snapshot.
cluster-chaos:
	ECCSPEC_BENCH_OUT=$(CURDIR)/BENCH_cluster.json \
		$(GO) test ./cmd/eccspecd/ -run 'TestClusterNetChaos' -count=1 -v

# Load smoke: a real eccspecd subprocess under ~1200 req/s of mixed
# API traffic for 3s, held to the SLOs in loadSmokeSLO (submit p99,
# completed-read p99, throughput floor, well-formed 429s, zero failed
# completed-result reads). Writes a BENCH_api.json snapshot.
load-smoke:
	ECCSPEC_BENCH_API_OUT=$(CURDIR)/BENCH_api.json \
		$(GO) test ./cmd/eccspecd/ -run TestLoadSmoke -count=1 -v

# Staticcheck without taking a module dependency: the CI image resolves
# the tool at its pinned @latest; run `make staticcheck` locally when
# the network allows.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@latest ./...

# One iteration of every benchmark — a smoke test so bench code can't rot.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# Performance snapshot: single-chip tick latency (BenchmarkEngineTick)
# plus fleet chips/min from a parallel micro-run, written to
# BENCH_ticks.json so CI archives a comparable number per commit.
bench-snapshot:
	ECCSPEC_BENCH_TICKS_OUT=$(CURDIR)/BENCH_ticks.json \
		$(GO) test ./internal/engine/ -run TestBenchSnapshot -count=1 -v

# Chaos smoke: every fault-injection and chaos suite, twice, so any
# nondeterminism in the replayability contract fails the build.
chaos:
	$(GO) test ./... -run 'Chaos|Fault' -count=2

# Short fuzz passes over the corruption-facing decoders and the
# daemon's submit endpoint; the seeded corpora alone already cover the
# real capture formats.
fuzz-smoke:
	$(GO) test -fuzz=FuzzSnapshotRestore -fuzztime=10s -run '^$$' ./internal/snapshot
	$(GO) test -fuzz=FuzzJournalRecover -fuzztime=10s -run '^$$' ./internal/store
	$(GO) test -fuzz=FuzzSubmitFleet -fuzztime=10s -run '^$$' ./cmd/eccspecd

vet:
	$(GO) vet ./...
