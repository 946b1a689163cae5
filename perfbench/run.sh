#!/usr/bin/env bash
# Builds the kairos daemon and the benchmark program from the checkout's
# source, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload drift --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout, including the Go build cache and GOPATH. The module has no
# dependencies to download.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/kairos || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a kairos source checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -o "$out/kairos" ./cmd/kairos >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
