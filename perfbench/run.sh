#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload long-read --seed 1 --seconds 40 --trace 0
#
# Every build product, the Go build cache and temporary files stay under
# .bench_build/ in the checkout, and the Go toolchain never downloads.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
