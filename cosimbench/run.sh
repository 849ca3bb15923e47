#!/usr/bin/env bash
# Builds the co-simulation benchmark from source and runs it, passing every
# argument through. Run from the repository root:
#   bash cosimbench/run.sh --workload tunnel --seed 1 --seconds 10 --trace 0
# Build outputs (binary, Go build cache, Go's config and telemetry
# directories) go to $CARGO_TARGET_DIR, default .bench_build, so the build
# writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$root/cosimbench" && go build -o "$build/cosimbench" .)
exec "$build/cosimbench" "$@"
