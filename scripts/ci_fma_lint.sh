#!/bin/sh
# Fused multiply-add lint.
#
# The Go spec lets a compiler fuse x*y + z into one fused multiply-add,
# which rounds once where separate * and + round twice. amd64 never
# fuses; arm64 (like ppc64le, s390x and riscv64) does, unless the
# product is converted explicitly: float64(x*y) + z. A fused site would
# make an arm64 build record, fit and serve other bytes than the amd64
# goldens pin. This script cross-compiles every package of the module
# for arm64 with the assembly listing and fails on any fused
# instruction, naming its source line. Cross-compiling downloads
# nothing; the build cache replays the listing of unchanged packages.
#
# Usage: scripts/ci_fma_lint.sh
set -e

out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! GOARCH=arm64 go build -trimpath -gcflags=-S ./... > "$out" 2>&1; then
	cat "$out" >&2
	exit 1
fi
sites=$(grep -E '[[:space:]]FN?M(ADD|SUB)[DS][[:space:]]' "$out" |
	grep -oE '\([^()]+\.go:[0-9]+\)' | tr -d '()' | sort -u)
if [ -n "$sites" ]; then
	echo "fma-lint: fused multiply-adds on arm64 at:" >&2
	echo "$sites" >&2
	echo "fma-lint: round each product explicitly, e.g. s += float64(a * b)" >&2
	exit 1
fi
echo "fma-lint: no fused multiply-adds on arm64"
