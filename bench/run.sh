#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of a checkout:
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Every build output (harness, server binary, Go build cache, per-run
# scratch) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

tool=harness pkg=.
if [[ "${1:-}" == compare ]]; then
	tool=compare pkg=./compare
	shift
fi
go -C "$root/bench" build -o "$out/$tool" "$pkg"
exec "$out/$tool" "$@"
