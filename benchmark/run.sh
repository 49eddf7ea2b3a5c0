#!/usr/bin/env bash
# Builds influtrackd and the benchmark driver from the checkout it is run
# in, then runs the driver with the arguments given. Run it from the
# repository root:
#
#   bash benchmark/run.sh --workload grow-zipf --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache, daemon logs, write-ahead logs, spans and
# result files all stay under .bench_build/ in the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/influtrackd" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the repository root; go.mod, cmd/influtrackd and benchmark/ are needed" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
# The module needs nothing outside the standard library, so the build
# uses the local toolchain and fetches nothing.
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/influtrackd" ./cmd/influtrackd
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
"$out/benchmark" -daemon "$out/influtrackd" -workdir "$out" "$@"
