#!/usr/bin/env bash
# Builds parmbench from this checkout and runs it with the given arguments,
# e.g. bash parmbench/run.sh --workload fig6-cycle --seed 42 --seconds 10 --trace 0
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-build" "$out/go-tmp" "$out/go-config" "$out/go-mod"
export GOCACHE=$out/go-build GOTMPDIR=$out/go-tmp XDG_CONFIG_HOME=$out/go-config \
	GOMODCACHE=$out/go-mod GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/parmbench" && go build -o "$out/parmbench-bin" .)
exec "$out/parmbench-bin" "$@"
