// Package httpapi exposes the mview engine over a small JSON/HTTP
// API, used by cmd/mviewd. One handler serves one database.
//
// The canonical routes live under the /v1 prefix:
//
//	POST /v1/relations              {"name":"r","attrs":["A","B"]}
//	GET  /v1/relations/{name}       base relation contents
//	POST /v1/views                  {"name":"v","from":["r","s"],"where":"...","select":["A"],"options":["deferred"]}
//	GET  /v1/views/{name}           view contents (with counters, policy, staleness)
//	GET  /v1/views/{name}/stats     maintenance statistics
//	GET  /v1/views/{name}/explain   definition and maintenance plan
//	GET  /v1/views/{name}/watch     change stream (SSE; the ready event carries the current rows)
//	POST /v1/views/{name}/refresh   snapshot refresh (§6)
//	GET  /v1/views/{name}/policy    refresh policy + current staleness
//	PUT  /v1/views/{name}/policy    {"policy":"maxstale=500ms"} → change it at runtime
//	GET  /v1/views/{name}/relevant  ?rel=r&values=9,10 → §4 verdict
//	POST /v1/exec                   {"ops":[{"op":"insert","rel":"r","values":[1,2]}, ...]}
//	GET  /v1/catalog                relation and view names
//	POST /v1/checkpoint             durable mode: snapshot + truncate the commit log
//	GET  /v1/views/{name}/analyze   explain + measured timings of the last maintenance
//	GET  /v1/debug/traces           flight-recorder summaries (WithFlightRecorder)
//	GET  /v1/debug/traces/{id}      one full trace: hierarchical spans + critical path
//	GET  /v1/replication/status     leader LSN + per-follower ack/lag (WithReplication)
//	GET  /v1/replication/snapshot   bootstrap snapshot stream for followers
//	GET  /v1/replication/stream     ?id=f1&from=LSN → framed WAL record stream
//	POST /v1/replication/ack        ?id=f1&lsn=LSN → follower applied-position report
//	GET  /metrics                   Prometheus text exposition of all registered metrics
//	GET  /debug/stats               JSON snapshot: uptime, every metric series, per-view stats,
//	                                critical-path attribution, per-view staleness and policies
//
// Every seed-era API route is also served at its historical
// unversioned path (POST /exec, GET /views/{name}, …) with
// byte-identical responses plus an RFC 9745 `Deprecation: true`
// header and a `Link: </v1/...>; rel="successor-version"` pointing at
// the canonical route. Routes added after versioning (the analyze and
// debug/traces family) exist only under /v1 — no alias to deprecate.
// /metrics and /debug/stats are operational endpoints, not API: they
// stay unversioned by Prometheus convention and carry no deprecation.
//
// POST /exec honors request cancellation: a client that disconnects
// while its transaction waits in a commit group abandons the wait and
// releases the slot (mview.ExecContext semantics).
//
// # Observability
//
// Unless disabled (WithoutObs), the handler owns a metrics registry —
// its own by default, or a shared one via WithObs — instruments the
// database with it (DB.Instrument), and wraps every endpoint in
// middleware recording per-endpoint counters and latencies:
//
//	mview_http_requests_total{endpoint,code}   requests by route and status
//	mview_http_request_seconds{endpoint}       latency histogram by route
//	mview_http_in_flight                       gauge of running requests
//
// Engine metrics use a `view` label and, for refresh latency, a
// `decision` label naming what ran and who chose it (differential,
// recompute, adaptive_differential, adaptive_recompute). GET /metrics
// serves the registry in Prometheus text format; GET /debug/stats
// serves the same data as JSON plus per-view maintenance statistics.
// A tracer passed via WithObs (typically an obs.SlowLogger, wired to
// mviewd's -slowlog flag) receives an `http.request` span per call,
// so slow requests and slow refreshes land in one structured log.
//
// # Group commit
//
// When the database runs with group commit (mviewd -group-commit),
// concurrent POST /exec requests coalesce into commit groups — one
// commit-log fsync, one composed maintenance pass, one snapshot
// publish — while each request is answered with its own TxInfo and
// error. SSE watch streams keep per-transaction granularity: every
// member of a group that changes a watched view produces its own
// change event (a subscribed view pinned to recompute is the one
// exception — it notifies once per group, with the group's combined
// diff). GET /debug/stats reports whether group commit is active
// ("group_commit") alongside the mview_group_commit_size,
// mview_group_wait_seconds, and mview_wal_fsyncs_total series.
//
// # Replication
//
// A leader passes its replication server (DB.ReplicationServer) via
// WithReplication to expose the /v1/replication routes above; /metrics
// then carries the per-follower mview_repl_lag_lsn and
// mview_repl_lag_seconds gauges (refreshed at scrape time), and
// /debug/stats grows a "replication" section. A handler over a
// follower database (mview.OpenFollower) serves the same read routes
// from the replica's local snapshots; its write routes answer 403 with
// the read-only error, and /debug/stats reports the follower's own
// applied position and lag under "replication_client".
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mview"
	"mview/internal/jsonenc"
	"mview/internal/obs"
	"mview/internal/repl"
)

// Handler serves the API for one database.
type Handler struct {
	db    *mview.DB
	mux   *http.ServeMux
	start time.Time

	// Observability; reg is nil only under WithoutObs.
	reg      *obs.Registry
	tr       obs.Tracer
	fr       *obs.FlightRecorder
	inflight *obs.Gauge
	noObs    bool
	ownObs   bool // registry defaulted here → this handler instruments the DB

	// Leader-side replication server (WithReplication); nil otherwise.
	repl *repl.Server
}

// Option configures a Handler.
type Option func(*Handler)

// WithObs makes the handler record into reg and emit request spans to
// tr (either may be nil). The handler instruments the database with
// the same pair unless the caller already did.
func WithObs(reg *obs.Registry, tr obs.Tracer) Option {
	return func(h *Handler) { h.reg, h.tr = reg, tr }
}

// WithoutObs disables instrumentation entirely: no middleware
// recording, and /metrics and /debug/stats answer 404.
func WithoutObs() Option {
	return func(h *Handler) { h.noObs = true }
}

// WithReplication exposes the leader's replication server on the
// /v1/replication routes: follower bootstrap snapshots, the framed WAL
// record stream, position acknowledgements, and a status view. The
// handler attaches its metrics registry to the server, so per-follower
// lag gauges appear on /metrics without further wiring.
func WithReplication(srv *repl.Server) Option {
	return func(h *Handler) { h.repl = srv }
}

// WithFlightRecorder lets /v1/debug/traces serve fr's contents. The
// recorder must also be wired into the database's tracer (typically as
// one member of the obs.MultiTracer passed to WithObs or Instrument) —
// this option only tells the handler where to read traces from.
func WithFlightRecorder(fr *obs.FlightRecorder) Option {
	return func(h *Handler) { h.fr = fr }
}

// New returns a handler over a fresh database.
func New(opts ...Option) *Handler { return NewWith(mview.Open(), opts...) }

// NewWith returns a handler over an existing database.
func NewWith(db *mview.DB, opts ...Option) *Handler {
	h := &Handler{db: db, mux: http.NewServeMux(), start: time.Now()}
	for _, o := range opts {
		o(h)
	}
	if h.noObs {
		h.reg, h.tr = nil, nil
	} else if h.reg == nil {
		if h.reg = db.Metrics(); h.reg == nil {
			h.reg = obs.NewRegistry()
		}
		h.ownObs = true
	}
	if h.reg != nil {
		h.inflight = h.reg.Gauge("mview_http_in_flight", "HTTP requests currently being served.", nil)
		if db.Metrics() == nil {
			db.Instrument(h.reg, h.tr)
		}
	}
	// Each API route is registered twice: canonically under /v1, and at
	// its historical unversioned path as a deprecated alias. /metrics
	// and /debug/stats are operational endpoints and stay unversioned.
	routes := []struct {
		method, path string
		fn           http.HandlerFunc
	}{
		{"POST", "/relations", h.createRelation},
		{"GET", "/relations/{name}", h.getRelation},
		{"POST", "/views", h.createView},
		{"GET", "/views/{name}", h.getView},
		{"GET", "/views/{name}/stats", h.getStats},
		{"GET", "/views/{name}/explain", h.explain},
		{"GET", "/views/{name}/watch", h.watch},
		{"POST", "/views/{name}/refresh", h.refresh},
		{"GET", "/views/{name}/relevant", h.relevant},
		{"POST", "/exec", h.exec},
		{"GET", "/catalog", h.catalog},
		{"POST", "/checkpoint", h.checkpoint},
	}
	for _, rt := range routes {
		h.handle(rt.method+" /v1"+rt.path, rt.fn)
		h.handle(rt.method+" "+rt.path, deprecatedAlias(rt.fn))
	}
	// Post-versioning routes: canonical /v1 only, no legacy alias.
	h.handle("GET /v1/views/{name}/analyze", h.explainAnalyze)
	h.handle("GET /v1/views/{name}/policy", h.getPolicy)
	h.handle("PUT /v1/views/{name}/policy", h.putPolicy)
	h.handle("GET /v1/debug/traces", h.listTraces)
	h.handle("GET /v1/debug/traces/{id}", h.getTrace)
	if h.repl != nil {
		if h.reg != nil {
			h.repl.SetObs(h.reg)
		}
		h.handle("GET /v1/replication/status", h.replStatus)
		h.handle("GET /v1/replication/snapshot", h.replSnapshot)
		h.handle("GET /v1/replication/stream", h.replStream)
		h.handle("POST /v1/replication/ack", h.replAck)
	}
	if h.reg != nil {
		h.handle("GET /metrics", h.metrics)
		h.handle("GET /debug/stats", h.debugStats)
	}
	return h
}

// deprecatedAlias serves a legacy unversioned route: identical
// behavior and body, plus the RFC 9745 deprecation header and a Link
// to the canonical /v1 path.
func deprecatedAlias(fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("</v1%s>; rel=\"successor-version\"", r.URL.Path))
		fn(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// statusWriter records the response code for metrics without hiding
// the Flusher the SSE watch endpoint needs.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers an endpoint, wrapped in the metrics/tracing
// middleware. The route pattern is the `endpoint` label, so
// cardinality stays bounded by the route table, not by request paths.
func (h *Handler) handle(pattern string, fn http.HandlerFunc) {
	if h.reg == nil && h.tr == nil {
		h.mux.HandleFunc(pattern, fn)
		return
	}
	hist := h.reg.Histogram("mview_http_request_seconds",
		"HTTP request latency by endpoint.", nil, obs.Labels{"endpoint": pattern})
	h.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		if h.inflight != nil {
			h.inflight.Add(1)
			defer h.inflight.Add(-1)
		}
		var span obs.Span
		if h.tr != nil {
			span = h.tr.Start("http.request", obs.KV{K: "endpoint", V: pattern})
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		hist.ObserveDuration(time.Since(t0))
		h.reg.Counter("mview_http_requests_total",
			"HTTP requests by endpoint and status code.",
			obs.Labels{"endpoint": pattern, "code": strconv.Itoa(sw.code)}).Inc()
		if span != nil {
			span.End(obs.KV{K: "code", V: sw.code})
		}
	})
}

// metrics serves the Prometheus text exposition. Staleness() runs
// first so the per-view mview_view_staleness_seconds gauges are
// current as of this scrape.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	h.db.Staleness()
	if h.repl != nil {
		h.repl.RefreshMetrics() // lag gauges current as of this scrape
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.reg.WritePrometheus(w)
}

// debugStats serves a JSON snapshot of every registered metric plus
// per-view maintenance statistics, per-view staleness, and the
// cumulative critical-path attribution of commit time.
func (h *Handler) debugStats(w http.ResponseWriter, r *http.Request) {
	views := make(map[string]mview.Stats)
	policies := make(map[string]map[string]any)
	for _, name := range h.db.Views() {
		if st, err := h.db.Stats(name); err == nil {
			views[name] = st
		}
		if p, err := h.db.Policy(name); err == nil {
			policies[name] = policyBody(p)
		}
	}
	staleness := h.db.Staleness() // also refreshes the gauges below
	stats := map[string]any{
		"policies":             policies,
		"uptime_seconds":       time.Since(h.start).Seconds(),
		"group_commit":         h.db.GroupCommitEnabled(),
		"shards":               h.db.Shards(),
		"snapshot_age_seconds": h.db.SnapshotAge().Seconds(),
		"critical_path":        h.db.CriticalPath(),
		"staleness":            staleness,
		"metrics":              h.reg.Snapshot(),
		"views":                views,
	}
	if h.repl != nil {
		h.repl.RefreshMetrics()
		stats["replication"] = map[string]any{
			"leader_lsn": h.repl.LeaderLSN(),
			"followers":  h.repl.Status(),
		}
	}
	if st, ok := h.db.FollowerStatus(); ok {
		stats["replication_client"] = st
	}
	writeJSON(w, http.StatusOK, stats)
}

// replStatus serves the leader's view of its followers.
func (h *Handler) replStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"leader_lsn": h.repl.LeaderLSN(),
		"followers":  h.repl.Status(),
	})
}

// replSnapshot streams a bootstrap snapshot. The body starts
// immediately, so a capture or write failure surfaces to the follower
// as a truncated stream, not an HTTP error status.
func (h *Handler) replSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = h.repl.Snapshot(w)
}

// replStream serves the framed WAL record stream, resuming after the
// follower's applied LSN. It runs until the client disconnects; a slow
// reader backpressures through the response writer.
func (h *Handler) replStream(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need id query parameter"))
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from LSN %q", r.URL.Query().Get("from")))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_ = h.repl.StreamTo(r.Context(), id, from, w)
}

// replAck records a follower's applied position.
func (h *Handler) replAck(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need id query parameter"))
		return
	}
	lsn, err := strconv.ParseUint(r.URL.Query().Get("lsn"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad lsn %q", r.URL.Query().Get("lsn")))
		return
	}
	h.repl.Ack(id, lsn)
	writeJSON(w, http.StatusOK, map[string]any{"acked": lsn})
}

// explainAnalyze serves Explain annotated with the measured stage
// timings of the view's most recent maintenance pass.
func (h *Handler) explainAnalyze(w http.ResponseWriter, r *http.Request) {
	out, err := h.db.ExplainAnalyze(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"explain": out})
}

// listTraces serves the flight recorder's catalog: one summary per
// retained trace, newest first, plus the lifetime count of completed
// traces (so a scraper can tell "quiet" from "ring cycled").
func (h *Handler) listTraces(w http.ResponseWriter, r *http.Request) {
	if h.fr == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no flight recorder attached (mviewd: enable with -trace-ring)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":  h.fr.Total(),
		"traces": h.fr.Summaries(),
	})
}

// getTrace serves one complete trace: the hierarchical span tree with
// offsets and attributes, and the computed critical path.
func (h *Handler) getTrace(w http.ResponseWriter, r *http.Request) {
	if h.fr == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no flight recorder attached (mviewd: enable with -trace-ring)"))
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad trace id %q", r.PathValue("id")))
		return
	}
	t, ok := h.fr.Get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("trace %d not in the recorder (evicted or never completed)", id))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errCode maps database errors to HTTP statuses that fallback doesn't
// cover: writes rejected by a read-only replica are 403.
func errCode(err error, fallback int) int {
	if errors.Is(err, mview.ErrReadOnlyReplica) {
		return http.StatusForbidden
	}
	return fallback
}

func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

type createRelationReq struct {
	Name  string   `json:"name"`
	Attrs []string `json:"attrs"`
}

func (h *Handler) createRelation(w http.ResponseWriter, r *http.Request) {
	var req createRelationReq
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := h.db.CreateRelation(req.Name, req.Attrs...); err != nil {
		writeErr(w, errCode(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"created": req.Name})
}

func (h *Handler) getRelation(w http.ResponseWriter, r *http.Request) {
	rows, err := h.db.Rows(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"rows": rows, "count": len(rows)})
}

type createViewReq struct {
	Name    string   `json:"name"`
	From    []string `json:"from"`
	Where   string   `json:"where"`
	Select  []string `json:"select"`
	Options []string `json:"options"`
}

func viewOptions(names []string) ([]mview.ViewOption, error) {
	var opts []mview.ViewOption
	for _, o := range names {
		// ParseViewOption is the single source of truth for option
		// names, so the HTTP surface accepts exactly what the WAL and
		// the CLI do — refresh policies (oncommit, every=250ms, ...)
		// included.
		opt, err := mview.ParseViewOption(strings.ToLower(o))
		if err != nil {
			return nil, err
		}
		opts = append(opts, opt)
	}
	return opts, nil
}

func (h *Handler) createView(w http.ResponseWriter, r *http.Request) {
	var req createViewReq
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opts, err := viewOptions(req.Options)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spec := mview.ViewSpec{From: req.From, Where: req.Where, Select: req.Select}
	if err := h.db.CreateView(req.Name, spec, opts...); err != nil {
		writeErr(w, errCode(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"created": req.Name})
}

// getView serves one view version, every field from the same snapshot:
// {"count":N,"policy":…,"rows":[…],"schema":[…],"staleness_seconds":…}
// — the keys in the order encoding/json gives a map — where the middle
// two come verbatim from the version's memoised rendering (DB.ViewJSON)
// and only the envelope around them is encoded per request.
func (h *Handler) getView(w http.ResponseWriter, r *http.Request) {
	obj, count, p, err := h.db.ViewJSON(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	inner := obj[1 : len(obj)-1] // "rows":[…],"schema":[…]
	env := append(make([]byte, 0, 112), `{"count":`...)
	env = strconv.AppendInt(env, int64(count), 10)
	env = append(env, `,"policy":`...)
	env = jsonenc.AppendString(env, p.Spec)
	env = append(env, ',')
	split := len(env) // inner goes here
	env = append(env, `,"staleness_seconds":`...)
	env = jsonenc.AppendFloat(env, p.Staleness.Seconds())
	env = append(env, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(env)+len(inner)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(env[:split])
	_, _ = w.Write(inner)
	_, _ = w.Write(env[split:])
}

// policyBody renders one view's policy the way both policy routes
// answer: the stable spec string, the effective commit-time mode, and
// the current staleness.
func policyBody(p mview.PolicyInfo) map[string]any {
	return map[string]any{
		"policy":            p.Spec,
		"immediate":         p.Immediate,
		"staleness_seconds": p.Staleness.Seconds(),
	}
}

func (h *Handler) getPolicy(w http.ResponseWriter, r *http.Request) {
	p, err := h.db.Policy(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, policyBody(p))
}

type putPolicyReq struct {
	Policy string `json:"policy"`
}

func (h *Handler) putPolicy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req putPolicyReq
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opt, err := mview.ParseViewOption(strings.ToLower(strings.TrimSpace(req.Policy)))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := h.db.SetPolicy(name, opt); err != nil {
		writeErr(w, errCode(err, http.StatusBadRequest), err)
		return
	}
	p, err := h.db.Policy(name)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, policyBody(p))
}

func (h *Handler) getStats(w http.ResponseWriter, r *http.Request) {
	st, err := h.db.Stats(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) explain(w http.ResponseWriter, r *http.Request) {
	out, err := h.db.Explain(r.PathValue("name"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"explain": out})
}

// watch streams a view's changes as Server-Sent Events. The opening
// `ready` event carries the view's current rows (read from the
// lock-free snapshot after the subscription is registered, so nothing
// between the two is lost — a commit racing the handshake may appear
// both in the initial rows and as a change event, i.e. delivery is
// at-least-once). After that, one `data:
// {"View":…,"Inserts":…,"Deletes":…}` event follows per refresh that
// changed the view. Slow consumers are tolerated by dropping events
// past a small buffer rather than stalling commits.
func (h *Handler) watch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	ch := make(chan mview.Change, 16)
	cancel, err := h.db.Subscribe(name, func(c mview.Change) {
		select {
		case ch <- c:
		default: // consumer too slow: drop rather than stall commits
		}
	})
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	defer cancel()

	// Initial state: subscribed first, then read, so no change can fall
	// between the snapshot and the stream. Keys are lowercase to stay
	// distinguishable from the Change events that follow; the payload is
	// {"rows":[…],"schema":[…],"view":…}, the version's memoised
	// rendering with the name appended.
	obj, _, _, err := h.db.ViewJSON(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	tail := append(make([]byte, 0, 16+len(name)), `,"view":`...)
	tail = jsonenc.AppendString(tail, name)
	tail = append(tail, "}\n\n"...)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "event: ready\ndata: ")
	_, _ = w.Write(obj[:len(obj)-1])
	_, _ = w.Write(tail)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case c := <-ch:
			data, err := json.Marshal(c)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			flusher.Flush()
		}
	}
}

func (h *Handler) refresh(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.db.Refresh(name); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"refreshed": name})
}

func (h *Handler) relevant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rel := r.URL.Query().Get("rel")
	valsParam := r.URL.Query().Get("values")
	if rel == "" || valsParam == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("need rel and values query parameters"))
		return
	}
	var vals []int64
	for _, p := range strings.Split(valsParam, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad value %q", p))
			return
		}
		vals = append(vals, v)
	}
	ok, err := h.db.Relevant(name, rel, vals...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"relevant": ok})
}

type execOp struct {
	Op     string  `json:"op"` // "insert" | "delete"
	Rel    string  `json:"rel"`
	Values []int64 `json:"values"`
}

type execReq struct {
	Ops []execOp `json:"ops"`
}

func (h *Handler) exec(w http.ResponseWriter, r *http.Request) {
	var req execReq
	if err := decode(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ops := make([]mview.Op, 0, len(req.Ops))
	for _, o := range req.Ops {
		switch strings.ToLower(o.Op) {
		case "insert":
			ops = append(ops, mview.Insert(o.Rel, o.Values...))
		case "delete":
			ops = append(ops, mview.Delete(o.Rel, o.Values...))
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown op %q", o.Op))
			return
		}
	}
	// The request context rides into the commit: a client that
	// disconnects while queued in a commit group abandons the wait.
	info, err := h.db.ExecContext(r.Context(), ops...)
	if err != nil {
		writeErr(w, errCode(err, http.StatusBadRequest), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *Handler) checkpoint(w http.ResponseWriter, r *http.Request) {
	if err := h.db.Checkpoint(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "checkpointed"})
}

func (h *Handler) catalog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"relations": h.db.Relations(),
		"views":     h.db.Views(),
	})
}
