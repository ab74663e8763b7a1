#!/usr/bin/env bash
# Builds the rotad admission benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload loaded --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span dumps) goes under $CARGO_TARGET_DIR, or
# .bench_build when that is unset.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

# Keep the toolchain's caches, temp files and telemetry inside the build
# directory, and never reach for the network.
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build" "$@"
