#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache, temp files, the binary)
# stays in .bench_build/ at the repository root; the benchmark itself
# writes bench-out/ in the current directory. Run it from the root:
#
#   bash bench/run.sh                                   # full pass, all workloads
#   bash bench/run.sh --workload color-local --seed 3 --seconds 10 --trace 0
#   bash bench/run.sh compare BASE.json NEW.json        # regression gate
#
# The binary runs as a child of this script rather than replacing it, so
# its getrusage(RUSAGE_CHILDREN) counts only the shard hosts it spawns,
# never the compiler.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/home/go"
export XDG_CONFIG_HOME="$build/home/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$build/chordalbench" .
"$build/chordalbench" "$@"
