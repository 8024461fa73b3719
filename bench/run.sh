#!/usr/bin/env bash
# The benchmark's entry point for a checkout that must stay
# self-contained: build ./bench from source and run it with the caller's
# arguments, keeping everything the build writes (Go build cache,
# temporaries, the binary) under bench/out beside what a run writes.
# Where that does not matter, `go run ./bench` is the same program.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/bench/out"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
