#!/bin/sh
# loc: print the non-test Go line count of every package directory
# outside benchmark/ (its own module), then their total — the measure
# a subtraction is judged by.
#
# Usage: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
	-not -path './benchmark/*' -not -path './.bench_build/*' -not -path './.git/*' |
	xargs wc -l |
	awk '$2 != "total" {
		dir = $2
		sub(/\/[^\/]*$/, "", dir)
		sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		n[dir] += $1
		sum += $1
	}
	END {
		for (d in n) printf "%7d  %s\n", n[d], d
		printf "%7d  total\n", sum
	}' | sort -k2,2 | awk '$2 != "total"; $2 == "total" { t = $0 } END { print t }'
