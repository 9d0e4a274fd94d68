#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the benchmark's scratch files all live
# under .bench_build in the checkout. The build needs the repository's own
# module one directory up; without it the build fails and nothing is
# reported.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$GOCACHE" "$GOTMPDIR"
(cd perfbench && go build -trimpath -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
