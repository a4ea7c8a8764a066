#!/bin/bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json names this script as the benchmark's command.
#
# Everything the build writes — the binary and Go's build cache — goes
# under .bench_build/ at the root of the checkout, so nothing is written
# outside it. The first build in a checkout compiles the standard
# library into that cache (about a minute on two cores); later ones take
# a fraction of a second.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $(pwd) is not the dstm module: the benchmark builds against its source" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/dstm-bench" ./bench
exec "$build/dstm-bench" "$@"
