#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; every file the build and the run write
# lands in .bench_build there, and nothing is fetched over the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d bench ]]; then
	echo "bench/run.sh: run from the repository root (no go.mod and bench/ here)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
