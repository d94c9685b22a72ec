#!/usr/bin/env bash
# Builds hpserve and the benchmark from source into .bench_build, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
#
# The Go build cache and any Go state stay under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/hpserve ]]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/hpserve here)" >&2
	exit 1
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/hpserve" ./cmd/hpserve
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -hpserve "$out/hpserve" -spans "$out" "$@"
