#!/usr/bin/env bash
# Builds the benchmark from the checkout it is started in and runs it.
# Everything the build and the run write stays under .bench_build in
# that checkout: the Go build and module caches, the go command's
# temporary and configuration directories (it keeps telemetry counters
# in the latter), the binary, data directories and trace files.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/sapphire-benchmark" .
exec "$out/sapphire-benchmark" "$@"
