#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-io --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes (Go build cache, binary, table files,
# traces) stays under .bench_build in the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --dir "$out" "$@"
