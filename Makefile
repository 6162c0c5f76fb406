GO ?= go

.PHONY: all build test race bench bench-json bench-selftest bench-smoke allocguard crash trace-smoke repl-smoke lint apicheck apilock clean

all: lint apicheck build test allocguard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the obs registry, the engine's
# notification fan-out, and the group-commit scheduler (including the
# group-vs-serial oracle) are exercised concurrently, as are the
# per-version read memos under view GETs racing group-committed writers.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'Group' ./internal/db .
	$(GO) test -race -count=3 -run 'ViewGet|ViewMemo|ViewJSON' ./internal/httpapi ./internal/db .
	$(GO) test -race -count=2 -run 'Shard|SplitUpdate|MergeDeltas' ./internal/db ./internal/relation ./internal/delta ./internal/diffeval .

# The quantitative-shape benchmarks behind bench_results.txt. Narrow
# with BENCH, e.g. `make bench BENCH=GroupCommit` for the C-GROUP
# group-commit throughput sweep, or BENCH=ObsOverhead.
BENCH ?= .
bench:
	$(GO) test -run=NONE -bench=$(BENCH) -benchmem .

# The C-* benchmark tables as machine-readable JSON (one object per
# benchmark line on stdout, raw output on stderr) so the perf
# trajectory behind bench_results.txt is trackable across PRs.
bench-json:
	scripts/bench-json.sh

# mviewload's own vet and tests. benchmark/ is a separate module that
# imports mview/internal/..., so the root build and test never compile
# it: run this after changing an exported signature there.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Short filter-fanout and read-replica runs of the real benchmark,
# traced and untraced, which must end correct with no failed operation.
# The traced filter-fanout pass compares the engine's filter counters
# with the generator's own count of (tuple, filtered view) verdicts, so
# it catches a commit path that stops counting the verdicts the
# relevance index reaches without running a view's test. read-replica
# is the only workload whose measured phase GETs a view (on the
# follower), and its output check decodes those bodies, so it catches a
# view GET that stops rendering what the check expects. Every pass
# catches a broken internal API the root build cannot see (benchmark/
# is its own module).
bench-smoke:
	@for wl in filter-fanout read-replica; do for trace in 1 0; do \
		out=$$(bash benchmark/run.sh --workload $$wl --seed 1 --seconds 4 --trace $$trace | tail -n 1); \
		case "$$out" in \
		*'"correct":true,"failed":0'*) echo "bench-smoke: ok   $$wl --trace $$trace" ;; \
		*) echo "bench-smoke: FAIL $$wl --trace $$trace: $$out"; exit 1 ;; \
		esac; \
	done; done

# Allocation regression gate: the C-FLAT eval benchmarks must stay
# within the allocs/op budgets checked in at scripts/allocguard.budget.
allocguard:
	scripts/allocguard.sh

# Fault injection: kill the checkpoint at every step (segment write,
# manifest tmp, rename, dirsync, segment delete), a group commit at
# every torn-batch byte offset, a single append at both IO stages, a
# legacy-layout migration mid-checkpoint, and a randomized workload at
# random hook steps — and prove recovery loses no committed transaction
# (durable_crash_test.go, durable_ckpt_test.go). The WAL-level torn-tail
# and rollback sweeps ride along from internal/wal.
crash:
	$(GO) test -race -count=1 -run 'CheckpointCrash|CheckpointFault|GroupCrash|GroupCommitCrash|SingleAppendFailure|LegacyMigrationCrash|RandomizedCrashCheckpoints' -v .
	$(GO) test -race -count=1 -run 'TornTail|AppendRollback|AppendBatchTorn|CorruptChecksum' ./internal/wal

# End-to-end flight-recorder check: boot mviewd with -trace-ring,
# drive a commit over HTTP, and assert /v1/debug/traces captured a
# full hierarchical trace (scripts/trace-smoke.sh).
trace-smoke:
	scripts/trace-smoke.sh

# End-to-end replication check: boot a leader mviewd -replicate and a
# follower mviewd -follow, commit over HTTP, and assert the follower
# converges, refuses writes, and both sides expose lag
# (scripts/repl-smoke.sh).
repl-smoke:
	scripts/repl-smoke.sh

lint:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# The exported Go surface of the root package, pinned. apicheck fails
# on any drift from docs/api.lock; after an intentional API change,
# review the diff and re-record with `make apilock`.
apicheck:
	@$(GO) doc -all . > /tmp/api.current
	@diff -u docs/api.lock /tmp/api.current \
		|| { echo "exported API drifted from docs/api.lock (run 'make apilock' if intended)"; exit 1; }

apilock:
	$(GO) doc -all . > docs/api.lock

clean:
	$(GO) clean ./...
