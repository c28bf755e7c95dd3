#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash nocbench/run.sh --workload synth-sat --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# the binary, trace and profile files) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/nocbench" && go build -o "$out/nocbench" .)
exec "$out/nocbench" -outdir "$out" "$@"
