#!/usr/bin/env bash
# Builds kerberosd and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload login-storm --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run it from the repository root. Everything it builds or generates
# (Go build cache, binaries, database fixtures) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/kerberosd" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a kerberos checkout (no go.mod/cmd/internal here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod
go build -o "$out/bin/kerberosd" ./cmd/kerberosd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
