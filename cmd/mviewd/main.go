// Command mviewd serves the mview engine over a JSON/HTTP API.
//
// Usage:
//
//	mviewd [-addr :8080] [-data ./mydb] [-metrics=true] [-slowlog 100ms]
//	       [-checkpoint-interval 5m] [-wal-segment-bytes N] [-group-commit] [-group-max N] [-group-window 2ms]
//	       [-trace-ring N] [-trace-slow 250ms] [-pprof] [-replicate] [-follow URL] [-follower-id ID]
//	       [-default-policy SPEC]
//
// See package mview/internal/httpapi for the endpoint reference. A
// minimal session:
//
//	curl -XPOST localhost:8080/v1/relations -d '{"name":"r","attrs":["A","B"]}'
//	curl -XPOST localhost:8080/v1/views -d '{"name":"v","from":["r"],"where":"A < 10"}'
//	curl -XPOST localhost:8080/v1/exec -d '{"ops":[{"op":"insert","rel":"r","values":[1,2]}]}'
//	curl localhost:8080/v1/views/v
//	curl -N localhost:8080/v1/views/v/watch   # SSE change stream
//	curl localhost:8080/metrics            # Prometheus exposition
//	curl localhost:8080/debug/stats        # JSON snapshot
//	curl localhost:8080/v1/debug/traces    # flight-recorder catalog
//
// -slowlog enables a structured log line ("slow span=db.refresh
// dur=... view=v ...") for any commit, view refresh, or HTTP request
// slower than the given threshold; 0 disables it.
//
// -trace-ring keeps the last N complete commit traces in an in-memory
// flight recorder, served at /v1/debug/traces (the catalog) and
// /v1/debug/traces/{id} (one hierarchical trace with per-stage spans
// and its computed critical path). Traces slower than -trace-slow are
// pinned so one slow outlier survives the ring cycling past it.
// -trace-ring 0 disables the recorder. The default (64 traces) costs
// a few hundred kilobytes and a few microseconds per commit.
//
// -pprof mounts Go's net/http/pprof profiling endpoints at
// /debug/pprof/ on the same listener — CPU and heap profiles, goroutine
// dumps, and execution traces for drilling into whatever the flight
// recorder attributes (see README "Profiling").
//
// -checkpoint-interval makes a durable server checkpoint periodically,
// bounding recovery replay time. Checkpoints are incremental (only
// relations dirtied since the last one are rewritten) and run concurrently
// with commits — the commit fence is held only to capture the cut and
// swap the manifest — so a background interval does not stall traffic.
// It requires -data; 0 (the default) leaves checkpointing to the
// operator.
//
// -wal-segment-bytes sets the commit-log segment rotation threshold:
// once the active commit.log.<n> segment exceeds this size, the next
// append seals it and starts a new one, and checkpoints reclaim
// covered segments by whole-file deletion. 0 selects the default
// (64 MiB).
//
// -group-commit coalesces concurrent POST /exec transactions into
// commit groups: one batched commit-log fsync, one composed
// maintenance pass, and one snapshot publish cover the whole group,
// while each request keeps its own atomicity and per-transaction SSE
// notifications. -group-max caps the group size and -group-window sets
// how long a leader waits for followers once writers are observed to
// be concurrent (solo writers never wait).
//
// -replicate exposes the leader-side replication routes under
// /v1/replication (requires -data: the segmented commit log is the
// stream's source of truth). Followers connect with -follow.
//
// -follow runs this server as a read-only follower of the leader at
// the given base URL: it bootstraps from a leader snapshot, applies
// the composed-delta stream through the same maintenance pipeline a
// leader runs, and serves every read route (views, watch streams,
// metrics) from its own local snapshots — horizontal read scale-out
// with no leader round-trip per read. Write routes answer 403.
// -follower-id names this replica in the leader's lag metrics
// (mview_repl_lag_lsn{follower=...}) and defaults to the listen
// address; give each follower a stable, unique id. -follow excludes
// -data, -group-commit, and -replicate.
//
// -default-policy sets the refresh policy given to views created
// without one (oncommit | ondemand | every=<dur> | maxstale=<dur> |
// autopolicy; the built-in default is oncommit). The chosen policy is
// materialized into each view's logged definition, so a durable
// database replays its views unchanged if the daemon restarts with a
// different default. Any view's policy can still be changed at runtime
// via PUT /v1/views/{name}/policy.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get a grace period, SSE watchers are disconnected, and the
// commit log is closed so every acknowledged transaction is on disk.
//
// The daemon logs structured records (log/slog, key=value text on
// stderr) at startup, recovery, follow, checkpoint failure and
// shutdown, then one "final stat" record per metric series. -slowlog
// lines are plain log lines on the same stream.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"sync"
	"syscall"
	"time"

	"mview"
	"mview/internal/httpapi"
	"mview/internal/obs"
)

// config carries every flag; one struct so run stays callable from
// tests without a twelve-argument signature.
type config struct {
	addr        string
	data        string
	metrics     bool
	slowlog     time.Duration
	ckptEvery   time.Duration
	segBytes    int64
	groupCommit bool
	groupMax    int
	groupWindow time.Duration
	traceRing   int
	traceSlow   time.Duration
	pprof       bool
	replicate   bool
	follow      string
	followerID  string
	defPolicy   string
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", ":8080", "listen address")
	flag.StringVar(&c.data, "data", "", "durable database directory (empty = in-memory)")
	flag.BoolVar(&c.metrics, "metrics", true, "serve /metrics and /debug/stats")
	flag.DurationVar(&c.slowlog, "slowlog", 0, "log spans (commits, refreshes, requests) slower than this; 0 disables")
	flag.DurationVar(&c.ckptEvery, "checkpoint-interval", 0, "checkpoint a durable database this often (0 disables; requires -data)")
	flag.Int64Var(&c.segBytes, "wal-segment-bytes", 0, "commit-log segment rotation threshold in bytes (0 = default 64 MiB; requires -data)")
	flag.BoolVar(&c.groupCommit, "group-commit", false, "coalesce concurrent transactions into commit groups (one fsync, one maintenance pass, one snapshot publish per group)")
	flag.IntVar(&c.groupMax, "group-max", 0, "maximum transactions per commit group (0 = default)")
	flag.DurationVar(&c.groupWindow, "group-window", 2*time.Millisecond, "how long a group leader waits for followers once writers are concurrent (0 = no wait)")
	flag.IntVar(&c.traceRing, "trace-ring", 64, "commit traces kept in the flight recorder at /v1/debug/traces (0 disables)")
	flag.DurationVar(&c.traceSlow, "trace-slow", 250*time.Millisecond, "pin traces slower than this so the ring cannot evict them")
	flag.BoolVar(&c.pprof, "pprof", false, "serve net/http/pprof profiling endpoints at /debug/pprof/")
	flag.BoolVar(&c.replicate, "replicate", false, "serve the leader-side replication stream under /v1/replication (requires -data)")
	flag.StringVar(&c.follow, "follow", "", "run as a read-only follower of the leader at this base URL (e.g. http://leader:8080)")
	flag.StringVar(&c.followerID, "follower-id", "", "stable follower name in the leader's lag metrics (default: the listen address)")
	flag.StringVar(&c.defPolicy, "default-policy", "", "refresh policy for views created without one: oncommit | ondemand | every=<dur> | maxstale=<dur> | autopolicy (empty = oncommit)")
	flag.Parse()

	if err := run(c); err != nil {
		logger.Error("mviewd failed", "err", err)
		os.Exit(1)
	}
}

// logger writes the daemon's structured log records to stderr.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func run(c config) error {
	var reg *obs.Registry
	var fr *obs.FlightRecorder
	var tracers obs.MultiTracer
	if c.slowlog > 0 {
		tracers = append(tracers, &obs.SlowLogger{Threshold: c.slowlog, Logf: log.Printf})
	}
	if c.traceRing > 0 {
		fr = obs.NewFlightRecorder(c.traceRing, c.traceSlow)
		tracers = append(tracers, fr)
	}
	var tr obs.Tracer
	switch len(tracers) {
	case 0:
	case 1:
		tr = tracers[0]
	default:
		tr = tracers
	}
	if c.metrics {
		reg = obs.NewRegistry()
	}

	var dbOpts []mview.Option
	if c.groupCommit {
		dbOpts = append(dbOpts, mview.WithGroupCommit(c.groupMax, c.groupWindow))
	}
	if c.segBytes > 0 {
		dbOpts = append(dbOpts, mview.WithSegmentSize(c.segBytes))
	}
	if reg != nil || tr != nil {
		dbOpts = append(dbOpts, mview.WithObs(reg, tr))
	}
	if c.defPolicy != "" {
		p, err := mview.ParseViewOption(c.defPolicy)
		if err != nil {
			return err
		}
		dbOpts = append(dbOpts, mview.WithDefaultPolicy(p))
	}

	var db *mview.DB
	switch {
	case c.follow != "":
		if c.data != "" || c.groupCommit || c.replicate {
			return errors.New("mviewd: -follow excludes -data, -group-commit, and -replicate")
		}
		id := c.followerID
		if id == "" {
			id = c.addr
		}
		var err error
		if db, err = mview.OpenFollower(c.follow, id, dbOpts...); err != nil {
			return err
		}
		logger.Info("following leader", "leader", c.follow, "follower_id", id)
	case c.data != "":
		var err error
		if db, err = mview.OpenDurable(c.data, dbOpts...); err != nil {
			return err
		}
		logger.Info("recovered durable database", "data", c.data)
	default:
		db = mview.Open(dbOpts...)
	}
	defer db.Close()

	var opts []httpapi.Option
	if reg != nil || tr != nil {
		opts = append(opts, httpapi.WithObs(reg, tr))
	} else {
		opts = append(opts, httpapi.WithoutObs())
	}
	if fr != nil {
		opts = append(opts, httpapi.WithFlightRecorder(fr))
	}
	if c.replicate {
		replSrv, err := db.ReplicationServer()
		if err != nil {
			return err
		}
		opts = append(opts, httpapi.WithReplication(replSrv))
	}
	var handler http.Handler = httpapi.NewWith(db, opts...)
	if c.pprof {
		// The API mux stays the default; pprof mounts beside it on the
		// same listener (unversioned, an operational endpoint like
		// /metrics). Explicit registrations — the package's init only
		// touches http.DefaultServeMux, which is not served here.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	// The signal context doubles as the base context of every request,
	// so long-lived SSE watch streams observe r.Context().Done() and
	// drain when shutdown starts.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Periodic checkpointing bounds commit-log growth and recovery
	// replay. The goroutine is joined before db.Close so a checkpoint
	// never races the log teardown.
	var ckptWG sync.WaitGroup
	if c.ckptEvery > 0 {
		if c.data == "" {
			return errors.New("mviewd: -checkpoint-interval requires -data")
		}
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			tick := time.NewTicker(c.ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := db.Checkpoint(); err != nil {
						logger.Error("checkpoint failed", "err", err)
					}
				}
			}
		}()
	}

	srv := &http.Server{
		Addr:              c.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	logger.Info("listening", "addr", c.addr, "data", c.data, "metrics", c.metrics,
		"slowlog", c.slowlog, "trace_ring", c.traceRing, "pprof", c.pprof,
		"group_commit", db.GroupCommitEnabled())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process immediately
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	ckptWG.Wait()
	if err := db.Close(); err != nil {
		return err
	}
	if reg != nil {
		logFinalStats(reg)
	}
	logger.Info("bye")
	return nil
}

// logFinalStats logs one "final stat" record per metric series: its
// name, its labels as a group, and its value (a histogram's count and
// sum).
func logFinalStats(reg *obs.Registry) {
	for _, s := range reg.Snapshot() {
		args := []any{"metric", s.Name}
		if len(s.Labels) > 0 {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			var labels []any
			for _, k := range keys {
				labels = append(labels, k, s.Labels[k])
			}
			args = append(args, slog.Group("labels", labels...))
		}
		if s.Type == "histogram" {
			args = append(args, "count", s.Count, "sum", s.Sum)
		} else {
			args = append(args, "value", s.Value)
		}
		logger.Info("final stat", args...)
	}
}
