#!/usr/bin/env bash
# Builds the update-path benchmark from the sources of the checkout it
# is run from, then runs one workload in a fresh process.
#
#   bash perfbench/run.sh --workload plan-n40 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, span files) goes under
# .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
