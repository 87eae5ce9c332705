#!/usr/bin/env bash
# Prints the Go lines added, removed and net between BASE (default HEAD)
# and the working tree, split into non-test files and _test.go files:
#
#   scripts/netloc.sh           # against HEAD
#   scripts/netloc.sh main~3    # against any revision
#
# It reads `git diff --numstat BASE`, so it sees tracked files only: an
# untracked file counts once it is staged (git add).
set -euo pipefail

base="${1:-HEAD}"
git diff --numstat "$base" -- '*.go' | awk '
	$1 == "-" { next } # binary
	{
		kind = ($3 ~ /_test\.go$/) ? "test" : "non-test"
		add[kind] += $1
		del[kind] += $2
	}
	END {
		printf "%-9s %8s %8s %8s\n", "", "added", "removed", "net"
		split("non-test test", kinds, " ")
		for (i = 1; i <= 2; i++) {
			k = kinds[i]
			printf "%-9s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
