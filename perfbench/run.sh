#!/usr/bin/env bash
# Builds the perfbench program and the simd/simw binaries from the
# checkout it is run in, then runs perfbench. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload small-runs --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes lands under .bench_build/perfbench.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"

# Keep the Go toolchain's caches and temporary files inside the
# checkout, ignore any user-level Go settings, and never reach for the
# network: the benchmark has no dependencies outside the repository.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Build time is not part of any metric; build output goes to stderr so
# perfbench's last stdout line stays its JSON result.
(cd "$root/perfbench" && go build -o "$out/bin/" . repro/cmd/simd repro/cmd/simw) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
