package mview

// Construction options: Open, OpenDurable, Load and OpenFollower
// accept functional options, the only way to set an engine-level knob,
// so every one is in place before the database serves its first
// statement and none can race with traffic.

import (
	"fmt"
	"time"

	"mview/internal/obs"
)

// Option configures a database at open time. Options apply in order;
// the zero set matches the historical defaults (serial commits, no
// instrumentation).
type Option func(*config)

type config struct {
	groupCommit  bool
	groupMax     int
	groupWindow  time.Duration
	obsSet       bool
	reg          *obs.Registry
	tracer       obs.Tracer
	segmentBytes int64
	defPolicy    *ViewOption
}

// WithGroupCommit opens the database with group commit enabled:
// concurrent Exec calls coalesce into commit groups — one batched
// fsync, one composed maintenance pass, one snapshot publish.
// maxBatch caps the group size (<= 0 selects the default); window is
// how long the leader waits for followers once there is evidence of
// concurrency (0 disables the wait — groups form only from what has
// already queued). Transactions keep their individual atomicity: a
// member that fails validation is excluded and retried alone without
// poisoning the rest of its group. Followers ignore the option: they
// apply the leader's batches as shipped.
func WithGroupCommit(maxBatch int, window time.Duration) Option {
	return func(c *config) {
		c.groupCommit = true
		c.groupMax = maxBatch
		c.groupWindow = window
	}
}

// WithObs attaches a metrics registry and an optional tracer to the
// database and every layer beneath it at open time: the engine (commit
// and refresh latency, §4 filter counts, pending-delta gauges), the
// differential evaluator (spans and per-operand delta events), and —
// for durable databases — the commit log (append/fsync latency, bytes
// written) plus the recovery cost of the open itself. Either argument
// may be nil.
func WithObs(reg *obs.Registry, tr obs.Tracer) Option {
	return func(c *config) {
		c.obsSet = true
		c.reg = reg
		c.tracer = tr
	}
}

// WithDefaultPolicy sets the refresh policy given to views created
// without an explicit one (the built-in default is OnCommit). p must
// be a when-policy option — OnCommit, Every, OnDemand, MaxStaleness,
// or AdaptivePolicy; anything else (or an invalid one, e.g. Every(0))
// surfaces as an error from the CreateView that would have used it.
// The default is materialized into each view's logged option list, so
// durable databases replay views under the policy they were created
// with even if the daemon reopens with a different default.
func WithDefaultPolicy(p ViewOption) Option {
	return func(c *config) { c.defPolicy = &p }
}

// WithSegmentSize sets the commit-log segment rotation threshold in
// bytes for durable databases: once the active segment exceeds n, the
// next append seals it and starts a new one, letting checkpoints drop
// covered segments by whole-file deletion. n <= 0 selects the default
// (64 MiB). Small values are useful in tests; in-memory databases
// ignore the option.
func WithSegmentSize(n int64) Option {
	return func(c *config) { c.segmentBytes = n }
}

func buildOpenConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// applyRuntime applies the post-construction options. For durable
// databases this runs after the commit log is attached, so
// instrumentation covers the log and group commit batches its
// appends.
func (d *DB) applyRuntime(c config) {
	if c.defPolicy != nil {
		p := *c.defPolicy
		if p.err == nil && p.when == nil {
			p.err = fmt.Errorf("mview: WithDefaultPolicy option %q is not a refresh policy (want oncommit, ondemand, every=<dur>, maxstale=<dur>, or autopolicy)", p.name)
		}
		d.defaultPolicy = &p
	}
	if c.obsSet {
		d.reg, d.tracer = c.reg, c.tracer
		d.engine().SetObs(c.reg, c.tracer)
		if d.wal != nil {
			d.wal.SetObs(c.reg)
		}
		if c.reg != nil && d.dir != "" {
			c.reg.Gauge("mview_wal_replay_seconds",
				"Commit-log replay duration at the last open.", nil).Set(d.replayDur.Seconds())
			c.reg.Gauge("mview_wal_replay_records",
				"Commit-log records replayed at the last open.", nil).Set(float64(d.replayRecords))
		}
	}
	// Followers never run the group-commit scheduler: batch boundaries
	// arrive from the wire and apply through ExecuteReplicated.
	if c.groupCommit && !d.readonly {
		var logBatch func([][]byte) error
		if d.wal != nil {
			logBatch = d.logPayloadBatch
		}
		d.engine().EnableGroupCommit(c.groupMax, c.groupWindow, logBatch)
	}
}
