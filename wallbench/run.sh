#!/usr/bin/env bash
# Builds wallbench from the checkout's sources and runs it:
#   bash wallbench/run.sh --workload spec-compile --seed 1 --seconds 10 --trace 0
# Everything the build and the run write stays in .bench_build/ at the
# checkout root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(cd "$here/.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -trimpath -buildvcs=false -o "$build/wallbench" .)
exec "$build/wallbench" --dir "$here" --cache "$build" "$@"
