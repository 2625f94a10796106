#!/usr/bin/env bash
# Builds the icserve benchmark program and runs it from the repository root:
#
#   bash icbench/run.sh --workload geant-online --seed 1 --seconds 10 --trace 0
#
# Every build artefact, the Go build cache and the benchmark's scratch files
# stay under .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/icbench" build -o "$out/icbench" .
exec "$out/icbench" "$@"
