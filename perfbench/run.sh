#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cdd-large --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the compiler's scratch files stay
# under .bench_build/, so the run writes nothing outside the checkout. Without the repository's go.mod next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
