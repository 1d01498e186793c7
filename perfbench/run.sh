#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it, passing
# every argument through. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload ssb-mix-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, and nothing is fetched from the network. Outside a full
# source tree the build fails, and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp" "$out/gopath"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# The commit stamp may ask git; keep it from searching above this tree.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
