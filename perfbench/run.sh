#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the repository root: the binary, the Go build cache, temporary files,
# scratch journals and span files. Build output goes to standard error,
# so the last line of standard output is the JSON result of perfbench.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
export TMPDIR="$build/tmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build" "$@"
