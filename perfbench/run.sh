#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; every argument passes through to the benchmark:
#
#   bash perfbench/run.sh --workload embed-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, checkpoints and span dumps all stay
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
