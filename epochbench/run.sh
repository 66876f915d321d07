#!/usr/bin/env bash
# Builds the epoch-round benchmark from this checkout and runs it; every
# file the build and the run write stays under the build directory.
#
#   bash epochbench/run.sh --workload flat-spread --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build directory is $CARGO_TARGET_DIR
# when set, else .bench_build.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOENV=off GOTOOLCHAIN=local GOWORK=off \
	GOPROXY=off GOFLAGS=
here=$(cd "$(dirname "$0")" && pwd)
go -C "$here" build -o "$build/epochbench" .
exec "$build/epochbench" --dir "$build/epochbench-run" "$@"
