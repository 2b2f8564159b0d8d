#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it:
#   bash pandabench/run.sh --workload analytic --seed 1 --seconds 30 --trace 0
# Run it from the repository root. The Go build cache, module cache and
# configuration, the build's temporary files, the binary and the span files
# all stay under .bench_build/ in the working directory, and nothing is
# fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/pandabench" -o "$out/pandabench" . >&2
exec "$out/pandabench" "$@"
