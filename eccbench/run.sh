#!/usr/bin/env bash
# Builds the benchmark and the eccspecd daemon from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash eccbench/run.sh --workload survey --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs and the Go build
# cache go to $CARGO_TARGET_DIR (default .bench_build), so nothing is
# written outside the checkout. Without the eccspec sources beside this
# directory the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(
	# The go command keeps telemetry counters under the user config
	# directory; point it inside the build directory.
	export XDG_CONFIG_HOME="$build/config"
	cd "$root/eccbench"
	go build -o "$build/eccbench" .
	go build -o "$build/eccspecd" eccspec/cmd/eccspecd
)

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/eccbench" -build-dir "$build" -daemon "$build/eccspecd" -commit "$commit" "$@"
