GO ?= go

.PHONY: all build test race bench bench-json bench-selftest bench-smoke allocguard crash fuzz trace-smoke repl-smoke lint apicheck apilock loc clean

all: lint apicheck build test allocguard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full suite under the race detector; the obs registry, the engine's
# notification fan-out (with the net-change subscriber cases on every
# maintenance path), and the group-commit scheduler (including the
# group-vs-serial oracle) are exercised concurrently, as are the
# per-version read memos under view GETs racing group-committed writers
# and the routing oracles, whose fleets hold every consumer of the
# relevance index (commits, deferred refreshes, subscribers), the
# group-commit and differential-maintenance oracles, the pin
# tests — readers pinning snapshots while commits write the unpinned
# versions in place, and a reader caught in the retire window — and the
# storage kernel's oracles: arenas and their indexes against maps,
# snapshots of every generation under concurrent readers, index cost at
# any fan-out, repeated.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 -run 'TestPinnedSnapshotsStayFrozen|TestRetireWindowReaderWaits|TestPinnedSnapshotSurvivesWrites' ./internal/db
	$(GO) test -race -count=2 -run 'Group|TestSubscribe' ./internal/db .
	$(GO) test -race -count=2 -run 'TestRouteEngineMatchesMaterialize|TestRouteCountContract' ./internal/db
	$(GO) test -race -count=3 -run 'ViewGet|ViewMemo|ViewJSON' ./internal/httpapi ./internal/db .
	$(GO) test -race -count=3 -run 'TestGroupCommitMatchesSerialOracle' ./internal/db
	$(GO) test -race -count=3 -run TestDifferentialMatchesFullReevaluation ./internal/diffeval
	$(GO) test -race -count=2 -run 'ArenaMatchesOracle|SnapshotIsolationAcrossGenerations|TestIndex' ./internal/relation

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

# Short filter-fanout, read-replica, durable-oltp and join-maint runs of
# the real benchmark, traced and untraced, which must end correct with
# no failed operation. The traced filter-fanout pass compares the
# engine's filter counters with the generator's own count of (tuple,
# filtered view) verdicts, so it catches a commit path that stops
# counting the verdicts the relevance index reaches without running a
# view's test.
# read-replica is the only workload whose measured phase GETs a view
# (on the follower), and its output check decodes those bodies, so it
# catches a view GET that stops rendering what the check expects.
# durable-oltp is the only one that kills the leader under load and
# replays its WAL, and its check proves every acknowledged transaction
# survived, so it catches a commit-log codec that loses or garbles one.
# join-maint is the only one with a projection view (jproj), and with
# three views over one 3-way join; its check compares every view with a
# reference evaluation, so it catches a view delta that folds wrong
# counts. Every pass catches a broken internal API the root build
# cannot see (benchmark/ is its own module).
bench-smoke:
	@for wl in filter-fanout read-replica durable-oltp join-maint; do for trace in 1 0; do \
		out=$$(bash benchmark/run.sh --workload $$wl --seed 1 --seconds 4 --trace $$trace | tail -n 1); \
		case "$$out" in \
		*'"correct":true,"failed":0'*) echo "bench-smoke: ok   $$wl --trace $$trace" ;; \
		*) echo "bench-smoke: FAIL $$wl --trace $$trace: $$out"; exit 1 ;; \
		esac; \
	done; done

# Allocation regression gate: the C-FLAT eval benchmarks and the
# POST /v1/exec handler benchmark must stay within the allocs/op
# budgets checked in at scripts/allocguard.budget.
allocguard:
	scripts/allocguard.sh

# Fault injection: kill the checkpoint at every step (segment write,
# manifest tmp, rename, dirsync, segment delete), a group commit at
# every torn-batch byte offset, a single append at both IO stages, and
# a randomized workload at random hook steps — and prove recovery loses
# no committed transaction (durable_crash_test.go, durable_ckpt_test.go).
# The WAL-level torn-tail and rollback sweeps ride along from
# internal/wal.
crash:
	$(GO) test -race -count=1 -run 'CheckpointCrash|CheckpointFault|GroupCrash|GroupCommitCrash|SingleAppendFailure|RandomizedCrashCheckpoints' -v .
	$(GO) test -race -count=1 -run 'TornTail|AppendRollback|AppendBatchTorn|CorruptChecksum' ./internal/wal

# A few seconds of fuzzing for each hand-written decoder of outside
# input: the POST /v1/exec body parser against the encoding/json
# decoder it replaced (same accepts, ops and statuses), the WAL /
# replication statement codec and the replication records frame (round
# trip; arbitrary bytes fail cleanly, with allocation bounded by their
# size), the checkpoint manifest (round trip; arbitrary bytes fail
# cleanly), the checkpoint catalog and data segments (round trip;
# arbitrary bytes fail cleanly, with allocation bounded by their size),
# and a WAL segment (arbitrary bytes recover a valid prefix that replay,
# open and a replication tail agree on; appended records round-trip).
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzExecBody$$' -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -run=NONE -fuzz='^FuzzStmtCodec$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run=NONE -fuzz='^FuzzDecodeRecords$$' -fuzztime=$(FUZZTIME) ./internal/repl
	$(GO) test -run=NONE -fuzz='^FuzzManifest$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run=NONE -fuzz='^FuzzCatalogSegment$$' -fuzztime=$(FUZZTIME) ./internal/db
	$(GO) test -run=NONE -fuzz='^FuzzDataSegment$$' -fuzztime=$(FUZZTIME) ./internal/db
	$(GO) test -run=NONE -fuzz='^FuzzWALSegment$$' -fuzztime=$(FUZZTIME) ./internal/wal

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

# internal/eval is the reference evaluator the oracles check the engine
# against; lint fails if the server or the library ever links it. The
# engine's published snapshot is loaded and stored only in
# internal/db/snapshot.go, whose currentSnapshot pins what a reader
# loads: a load anywhere else could read a version an install is
# writing in place. Base relations carry their own indexes, so no
# non-test file of the engine or the root package may build an index
# beside one (relation.BuildIndex); benchmark/ keeps its own.
lint:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'
	! $(GO) list -deps ./cmd/mviewd . | grep -qx 'mview/internal/eval'
	! grep -rnE --include='*.go' --exclude='*_test.go' '\.snap\.(Load|Store|Swap|CompareAndSwap)\(' . \
		| grep -v '^./internal/db/snapshot.go:' | tee /dev/stderr | grep -q .
	! grep -nE --include='*.go' --exclude='*_test.go' 'relation\.(BuildIndex|NewIndex)\(' ./*.go ./internal/db/*.go \
		| tee /dev/stderr | grep -q .

# The exported Go surface of the root package, pinned. apicheck fails
# on any drift from docs/api.lock; after an intentional API change,
# review the diff and re-record with `make apilock`.
apicheck:
	@$(GO) doc -all . > /tmp/api.current
	@diff -u docs/api.lock /tmp/api.current \
		|| { echo "exported API drifted from docs/api.lock (run 'make apilock' if intended)"; exit 1; }

apilock:
	$(GO) doc -all . > docs/api.lock

# Non-test Go line counts per package directory outside benchmark/,
# and their total: the yardstick a subtraction is judged by.
loc:
	scripts/loc.sh

clean:
	$(GO) clean ./...
