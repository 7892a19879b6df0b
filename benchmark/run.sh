#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload cold-100k --seed 1 --seconds 35 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced run's JSONL trace all stay under $CARGO_TARGET_DIR (default
# .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/benchmark" && go build -trimpath -o "$out/benchmark" .) >&2
exec "$out/benchmark" --out "$out" "$@"
