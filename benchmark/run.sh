#!/usr/bin/env bash
# run.sh — the one command of the end-to-end serving benchmark.
#
#   benchmark/run.sh                      10 seeds per workload plus a traced run each: prints every
#                                         end-to-end and per-layer metric with unit and n, runs the
#                                         output check, writes benchmark/out/set.json and re-renders
#                                         BENCHMARK.json from the harness's registry
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run; the last line of stdout is the result object
#                                         (the form BENCHMARK.json's command takes)
#   benchmark/run.sh compare A.json B.json   two sets against the bounds; exits non-zero on "worse"
#   benchmark/run.sh selfcheck            two sets of this build, compared (the repeatability criterion)
#   benchmark/run.sh gate                 a traced run per workload at ISSUE 11's campaign sizes: the
#                                         layer shares ROADMAP item 1's decision gate reads
#   benchmark/run.sh update-expected      regenerate benchmark/expected/ from isolated runs
#
# Every form that runs a workload keeps the server's state dirs under
# benchmark/out/ and refuses to run if that is tmpfs, where fsync is free:
# -state-root DIR moves them to a disk, -allow-memfs forces the run and stamps
# a warning into the result.
#
# It builds lynbench from source into benchmark/out/ (build cache included, so
# nothing outside the checkout is written) and pins GOMAXPROCS to the load
# model's two clients; lynbench records both in every result. To rerun on a
# bigger box, set LYNBENCH_GOMAXPROCS; the numbers are then a different
# benchmark and compare only with themselves.
set -euo pipefail

cd "$(dirname "$0")/.."

mkdir -p benchmark/out
BUILD="$PWD/benchmark/out"
export GOCACHE="$BUILD/gocache"
go build -o "$BUILD/lynbench" ./benchmark/cmd/lynbench

export GOMAXPROCS="${LYNBENCH_GOMAXPROCS:-2}"
LYNBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export LYNBENCH_COMMIT

if [ "$#" -eq 0 ]; then
	"$BUILD/lynbench" set
	"$BUILD/lynbench" benchmark-json > BENCHMARK.json
	echo "re-rendered BENCHMARK.json from the registry"
	exit 0
fi
exec "$BUILD/lynbench" "$@"
