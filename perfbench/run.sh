#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed to the binary. Run from the repository root:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and the benchmark's scratch files stay under
# .bench_build/ in the checkout. The benchmark module resolves the engine
# through `replace hybridolap => ../`, so outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOENV=off GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
