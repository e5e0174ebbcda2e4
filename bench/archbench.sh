#!/usr/bin/env bash
# Builds archbench from this checkout's sources and runs one workload:
#
#   bash bench/archbench.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and the Go build cache live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout, so
# only the first run pays for compiling the standard library. The build
# needs the repository's own module one directory up; without it the build
# fails and nothing is measured.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=-buildvcs=false
# The toolchain's telemetry counters go under the user config directory.
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache

go -C bench build -o "$out/archbench" ./archbench
exec "$out/archbench" "$@"
