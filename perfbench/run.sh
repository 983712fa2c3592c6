#!/usr/bin/env bash
# Builds the benchmark and the iseld daemon from this checkout's source
# and runs one workload. Run from the repository root:
#   bash perfbench/run.sh --workload synth --seed 1 --seconds 15 --trace 0
# Build caches and outputs stay under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out" TMPDIR="$out" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
mkdir -p "$GOCACHE" "$XDG_CONFIG_HOME"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/iseld" ./cmd/iseld
exec "$out/perfbench" --iseld "$out/iseld" "$@"
