#!/bin/sh
# Builds the benchmark from source and runs it from the repository root.
#
#   sh perfbench/run.sh --workload fig7-detailed --seed 1 --seconds 20 --trace 0
#   sh perfbench/run.sh summarize results/*.jsonl
#
# Every file the build and the run leave behind stays inside the
# checkout: the Go build cache, module cache and go command config go
# under $CARGO_TARGET_DIR (default .bench_build), run scratch and traces
# under .perfbench. Nothing is downloaded: the benchmark module needs
# only the standard library and the repository module beside it.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
GOCACHE=$build/gocache
GOMODCACHE=$build/gomodcache
GOTMPDIR=$build/tmp
XDG_CONFIG_HOME=$build/config
GOTOOLCHAIN=local
GOPROXY=off
GOSUMDB=off
GOFLAGS=-mod=mod
export GOCACHE GOMODCACHE GOTMPDIR XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY GOSUMDB GOFLAGS
mkdir -p "$GOTMPDIR"
go build -C perfbench -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
