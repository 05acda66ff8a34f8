#!/bin/sh
# The benchmark's build file: builds ./bench from the checkout's source and
# runs it from the checkout root with the given arguments. Everything the
# build and the run write — Go's build cache, the binary, the disk-tier temp
# dirs, trace files — stays under .bench_build/ in the checkout.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local TMPDIR="$build/tmp"
go build -o "$build/afbench" ./bench
exec "$build/afbench" "$@"
