#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload phttp-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the checkout root: the Go build cache, the binary, the run directory
# holding the handoff sockets, and the span files of traced runs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The build writes only to stderr so the result stays the last line of
# standard output.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
