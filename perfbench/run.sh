#!/usr/bin/env bash
# Builds mcbound-server and the perfbench harness from this checkout,
# then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload submit-rf --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there (or under $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export HOME=$out/home XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOENV=off GOWORK=off

go build -o "$out/mcbound-server" ./cmd/mcbound-server
(cd perfbench && go build -o "$out/perfbench" .)

work=$(mktemp -d "$out/tmp/run.XXXXXX")
exec "$out/perfbench" -server "$out/mcbound-server" -work "$work" -spans "$out/spans" "$@"
