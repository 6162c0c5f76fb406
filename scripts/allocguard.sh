#!/usr/bin/env bash
# allocguard: run the gated benchmarks with -benchmem and fail if
# allocs/op regresses past the checked-in budget. The gates are the
# C-FLAT eval benchmarks (root package), BenchmarkExecRequest, the
# POST /v1/exec handler's parse, commit, log and response path
# (internal/httpapi), and BenchmarkCommitInPlace, a commit into a
# 50k-row join view with no reader (written in place) and with a
# reader pinning every version (copied first) (internal/db).
#
# allocs/op is deterministic for a fixed workload (unlike ns/op, which
# drifts with machine load), so it is the one benchmark axis a CI box
# can gate on. The budgets in scripts/allocguard.budget carry ~10%
# headroom over the measured numbers; after an intentional change,
# re-measure with this script and update the budget in the same commit.
set -euo pipefail
cd "$(dirname "$0")/.."

budget=scripts/allocguard.budget
out=$(go test -run=NONE -bench='^Benchmark(FlatEval|ExecRequest|CommitInPlace)$' -benchmem -count=1 . ./internal/httpapi ./internal/db)
echo "$out"

fail=0
while read -r name limit; do
	case "$name" in '' | \#*) continue ;; esac
	got=$(echo "$out" | awk -v n="^Benchmark${name}(-[0-9]+)?\$" \
		'$1 ~ n && $NF == "allocs/op" {print $(NF-1); exit}')
	if [ -z "$got" ]; then
		echo "allocguard: no benchmark result for $name" >&2
		fail=1
	elif [ "$got" -gt "$limit" ]; then
		echo "allocguard: FAIL $name at $got allocs/op, budget $limit" >&2
		fail=1
	else
		echo "allocguard: ok   $name at $got allocs/op, budget $limit"
	fi
done <"$budget"
exit $fail
