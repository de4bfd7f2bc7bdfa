#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it. Run from the root of the repository:
#
#   bash servebench/run.sh --workload serve-large --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and run output stays under the build
# directory (CARGO_TARGET_DIR if set, else .bench_build).
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd servebench && go build -o "$build/servebench-bin" .)
exec "$build/servebench-bin" --out "$build/servebench" "$@"
