#!/usr/bin/env bash
# Builds the e2ebench command and cmd/serve from this checkout's source
# and runs e2ebench with the given arguments:
#
#   bash e2ebench/run.sh --workload broadcast_http --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache and per-run scratch files all stay
# under .bench_build/ at the checkout root.
set -euo pipefail

bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$bench"
go build -o "$out/e2ebench" . >&2
go build -o "$out/serve" repro/cmd/serve >&2
cd "$root"
exec "$out/e2ebench" -serve "$out/serve" -work "$out/work" "$@"
