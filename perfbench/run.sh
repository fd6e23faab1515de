#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# started in, then runs it with the arguments given:
#
#	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary and every Go cache stay
# under .bench_build/ in that root, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
