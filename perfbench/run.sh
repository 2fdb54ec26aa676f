#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiled
# packages, temporary files, the binary) goes under .bench_build/ in that
# root, so a run touches nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must both exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOENV=off

commit=unknown
if [[ -e .git ]] && rev=$(git rev-parse --short=12 HEAD 2>/dev/null); then
	commit=$rev
fi

(cd perfbench && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
