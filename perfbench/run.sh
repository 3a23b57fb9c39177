#!/usr/bin/env bash
# Builds the benchmark from the source checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload membound --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout,
# under .bench_build/: the binary, the Go build cache and temporary
# files. The build fails, and so does the benchmark, when the simulator's
# sources are not beside this directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
