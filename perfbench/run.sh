#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the repository
# root:
#
#   bash perfbench/run.sh --workload tricycle-sample --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, serve-mixed's temporary
# data directories and the traced run's span files.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
