#!/bin/sh
# bench-json: run the C-* quantitative-shape benchmarks and emit one
# JSON object per benchmark line on stdout, so the perf trajectory
# behind bench_results.txt is machine-trackable across PRs:
#
#   {"benchmark":"BenchmarkGroupCommit/writers=16/group","iterations":2000,
#    "metrics":{"ns/op":70123,"fsyncs/op":0.06}}
#
# Every -benchmem and ReportMetric column becomes a metrics key. Raw
# `go test -bench` output passes through on stderr for humans.
#
# Usage: scripts/bench-json.sh [bench-regex] [benchtime]
#   default regex covers the C-* system benchmarks in the root package
#   and the storage layer's BenchmarkCloneWrite in internal/relation;
#   default benchtime 100x keeps a full sweep tractable in CI.
set -eu

BENCH="${1:-ParallelCommit|SnapshotReads|GroupCommit|ShardedCommit|Checkpoint|FlatEval|Replication|RefreshPolicy|CloneWrite}"
BENCHTIME="${2:-100x}"

go test -run=NONE -bench="$BENCH" -benchtime="$BENCHTIME" -benchmem . ./internal/relation |
	tee /dev/stderr |
	awk '
		/^Benchmark/ {
			n = split($0, f, /[ \t]+/)
			printf "{\"benchmark\":\"%s\",\"iterations\":%s,\"metrics\":{", f[1], f[2]
			sep = ""
			# Fields alternate value unit from the third column on.
			for (i = 3; i + 1 <= n; i += 2) {
				printf "%s\"%s\":%s", sep, f[i+1], f[i]
				sep = ","
			}
			print "}}"
		}
	'
