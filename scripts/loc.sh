#!/usr/bin/env bash
# loc.sh — the two numbers ROADMAP's line budget quotes: lines of non-test and
# of test Go in files git tracks, outside benchmark/ (lynbench is budgeted
# apart). Whole lines (wc -l), comments and blanks included. Stage new files
# (git add) before running it.
set -euo pipefail

cd "$(dirname "$0")/.."

files() { git ls-files -- '*.go' | grep -v '^benchmark/'; }

printf 'non-test Go outside benchmark/: %d lines\n' "$(files | grep -v '_test\.go$' | xargs cat | wc -l)"
printf 'test Go outside benchmark/:     %d lines\n' "$(files | grep '_test\.go$' | xargs cat | wc -l)"
