package mview

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/db"
	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/jsonenc"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/repl"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
	"mview/internal/wal"
)

// DB is a main-memory database with materialized views, optionally
// backed by a commit log and checkpoints (OpenDurable). It is safe for
// concurrent use.
type DB struct {
	// eng is an atomic pointer so readers (queries, HTTP handlers,
	// metrics) can keep loading it lock-free while a replication
	// re-sync swaps in a freshly bootstrapped engine (follower.go).
	// Leader databases store it once at open and never again.
	eng atomic.Pointer[db.Engine]
	// Durable state; nil/zero for in-memory databases.
	wal *wal.Log
	dir string
	mu  sync.Mutex // serializes logged statements so log order = apply order
	// gmu fences group commit against structural change: every grouped
	// Exec holds it shared for the duration of its submit, while DDL,
	// Checkpoint, Close, and the Enable/DisableGroupCommit toggles hold
	// it exclusively. That keeps log order equal to apply order across
	// the two logging disciplines (groups log-before-visible inside the
	// engine; statements here apply-then-log) and guarantees the
	// scheduler never stops with a durable transaction in flight.
	gmu sync.RWMutex
	// ckptMu serializes whole checkpoints (the background ticker, an
	// operator-triggered Checkpoint, and the open-time migration may
	// otherwise interleave); the commit fence is only held for the
	// capture and manifest-swap phases inside.
	ckptMu sync.Mutex
	// man is the checkpoint manifest currently on disk (nil before the
	// first checkpoint); ckptStats describes the last completed one.
	// Both are guarded by mu.
	man       *manifest
	ckptStats CheckpointStats
	// Replication (repl.go): replSrv is the lazily-created leader-side
	// stream server; follower is non-nil on replicas opened with
	// OpenFollower, which also sets readonly so every mutating method
	// returns ErrReadOnlyReplica.
	replMu   sync.Mutex
	replSrv  *repl.Server
	follower *followerState
	readonly bool
	// defaultPolicy is the WithDefaultPolicy refresh policy appended to
	// CreateView option lists that choose none; nil means OnCommit (the
	// zero ViewConfig) without materializing an option.
	defaultPolicy *ViewOption
	// Observability (Instrument); nil until attached.
	reg    *obs.Registry
	tracer obs.Tracer
	// Recovery cost measured by OpenDurable, exposed by Instrument.
	replayDur     time.Duration
	replayRecords int
}

// Instrument attaches a metrics registry and an optional tracer to
// the database and every layer beneath it: the engine (commit and
// refresh latency, §4 filter counts, pending-delta gauges), the
// differential evaluator (spans and per-operand delta events), and —
// for durable databases — the commit log (append/fsync latency, bytes
// written) plus the recovery cost of the last open. Either argument
// may be nil; calling with both nil detaches instrumentation.
//
// Call it once, before serving traffic. Handles are cached, so
// re-instrumenting with the same registry is idempotent.
//
// Deprecated: pass WithObs to Open or OpenDurable instead.
func (d *DB) Instrument(reg *obs.Registry, tr obs.Tracer) {
	defer d.lockIfDurable()()
	d.reg = reg
	d.tracer = tr
	d.engine().SetObs(reg, tr)
	if d.wal != nil {
		d.wal.SetObs(reg)
	}
	if reg != nil && d.dir != "" {
		reg.Gauge("mview_wal_replay_seconds",
			"Commit-log replay duration at the last open.", nil).Set(d.replayDur.Seconds())
		reg.Gauge("mview_wal_replay_records",
			"Commit-log records replayed at the last open.", nil).Set(float64(d.replayRecords))
	}
}

// Metrics returns the registry attached by Instrument (nil when the
// database is uninstrumented).
func (d *DB) Metrics() *obs.Registry { return d.reg }

// engine returns the current engine. The pointer is stable for the
// database's whole lifetime except on a replication follower, where a
// gap re-sync atomically replaces it (the old engine's immutable
// snapshots stay valid for readers that already hold them).
func (d *DB) engine() *db.Engine { return d.eng.Load() }

// Open creates an empty database configured by the given options.
func Open(opts ...Option) *DB {
	cfg := buildOpenConfig(opts)
	d := &DB{}
	d.eng.Store(db.New(cfg.engineOptions()...))
	d.applyRuntime(cfg)
	return d
}

// SetMaintWorkers bounds the worker pool that parallelizes per-view
// maintenance inside each commit and RefreshAll. n <= 0 restores the
// default, GOMAXPROCS. Independent views compute their deltas
// concurrently while the commit holds the engine lock, so multi-view
// catalogs stop paying single-core commit latency.
//
// Deprecated: pass WithMaintWorkers to Open or OpenDurable instead.
func (d *DB) SetMaintWorkers(n int) { d.engine().SetMaintWorkers(n) }

// MaintWorkers reports the effective maintenance worker-pool size.
func (d *DB) MaintWorkers() int { return d.engine().MaintWorkers() }

// CreateRelation adds a base relation with the named attributes.
func (d *DB) CreateRelation(name string, attrs ...string) error {
	if d.readonly {
		return ErrReadOnlyReplica
	}
	defer d.lockIfDurable()()
	if err := d.engine().CreateRelation(name, toAttrs(attrs)...); err != nil {
		return err
	}
	return d.logStmt(walStmt{Kind: "relation", Name: name, Attrs: attrs})
}

func toAttrs(attrs []string) []schema.Attribute {
	as := make([]schema.Attribute, len(attrs))
	for i, a := range attrs {
		as[i] = schema.Attribute(a)
	}
	return as
}

// lockIfDurable takes the statement-ordering lock when a commit log is
// attached, returning the matching unlock (a no-op otherwise). The
// caller must invoke the result with defer-like discipline; because
// the lock only matters for durable databases, plain calls at function
// entry followed by the returned closure via defer keep in-memory
// paths free of contention.
func (d *DB) lockIfDurable() func() {
	if d.wal == nil {
		// In-memory databases still fence structural statements against
		// in-flight grouped transactions; the engine lock alone orders
		// them, but draining the group first keeps DDL from interleaving
		// with a batch mid-pipeline.
		d.gmu.Lock()
		return d.gmu.Unlock
	}
	d.gmu.Lock()
	d.mu.Lock()
	return func() {
		d.mu.Unlock()
		d.gmu.Unlock()
	}
}

// ViewSpec describes an SPJ view: V = π_Select(σ_Where(From₁ × … ×
// Fromₚ)).
type ViewSpec struct {
	// From lists the operand relations, each as "rel", "rel alias", or
	// "rel AS alias". Attributes are referred to by name when
	// unambiguous, or qualified as "alias.attr".
	From []string
	// Where is the selection condition, e.g.
	// "A < 10 && C > 5 && B = C". Atoms compare an attribute against
	// an attribute, an attribute plus a constant, or a constant, with
	// =, !=, <, <=, >, >=; combine with &&, ||, and parentheses. Empty
	// means no condition.
	Where string
	// Select lists the projected attributes; empty means all.
	Select []string
}

func (s ViewSpec) build(name string) (expr.View, error) {
	v := expr.View{Name: name}
	if len(s.From) == 0 {
		return v, fmt.Errorf("mview: view %q has an empty From list", name)
	}
	for _, f := range s.From {
		fields := strings.Fields(f)
		switch {
		case len(fields) == 1:
			v.Operands = append(v.Operands, expr.Operand{Rel: fields[0]})
		case len(fields) == 2:
			v.Operands = append(v.Operands, expr.Operand{Rel: fields[0], Alias: fields[1]})
		case len(fields) == 3 && strings.EqualFold(fields[1], "as"):
			v.Operands = append(v.Operands, expr.Operand{Rel: fields[0], Alias: fields[2]})
		default:
			return v, fmt.Errorf("mview: bad From entry %q (want \"rel\", \"rel alias\", or \"rel AS alias\")", f)
		}
	}
	if s.Where != "" {
		w, err := pred.Parse(s.Where)
		if err != nil {
			return v, err
		}
		v.Where = w
	}
	for _, a := range s.Select {
		v.Project = append(v.Project, schema.Attribute(a))
	}
	return v, nil
}

// ViewOption configures a view at creation time. Options carry a
// stable name so durable databases can log and replay view
// definitions; ParseViewOption reconstructs any option from that name.
// The family covers three orthogonal axes: WHEN the view refreshes
// (the policy constructors in policy.go — OnCommit, Every, OnDemand,
// MaxStaleness, AdaptivePolicy), HOW a refresh runs (WithRecompute,
// WithAdaptiveMaint), and maintenance tuning (WithFilter,
// WithoutPrefixSharing).
type ViewOption struct {
	name  string
	apply func(*db.ViewConfig)
	// when is non-nil for refresh-policy options — the subset SetPolicy
	// accepts and a WithDefaultPolicy default is displaced by.
	when *db.RefreshSpec
	// err carries a constructor error (e.g. Every(0)) until the option
	// is used, since constructors have no error return.
	err error
}

// Deferred makes the view a snapshot (§6): transactions accumulate
// and the view is refreshed only by Refresh or RefreshAll.
//
// Deprecated: use the policy constructor OnDemand, which is identical;
// or Every / MaxStaleness for a deferred view the engine keeps fresh
// on a schedule.
func Deferred() ViewOption {
	o := OnDemand()
	o.name = "deferred" // historical log spelling, still round-trips
	return o
}

// WithRecompute pins the view to full re-evaluation on every refresh —
// the paper's baseline, useful for comparison. This is the HOW of a
// refresh; combine freely with any WHEN policy.
func WithRecompute() ViewOption {
	return ViewOption{name: "recompute", apply: func(c *db.ViewConfig) { c.Policy = db.PolicyRecompute }}
}

// Recompute pins the view to full re-evaluation on every refresh.
//
// Deprecated: renamed WithRecompute to make room for the refresh
// policy constructors (OnCommit, Every, OnDemand, MaxStaleness,
// AdaptivePolicy); behavior is unchanged.
func Recompute() ViewOption { return WithRecompute() }

// WithAdaptiveMaint lets the engine choose per refresh between
// differential maintenance and full re-evaluation, based on the
// delta-to-base size ratio — the paper's closing research question,
// answered with a simple cost model. This is the HOW of a refresh;
// for the adaptive WHEN (on-commit vs deferred from the write/read
// ratio) see AdaptivePolicy.
func WithAdaptiveMaint() ViewOption {
	return ViewOption{name: "adaptive", apply: func(c *db.ViewConfig) { c.Policy = db.PolicyAdaptive }}
}

// Adaptive lets the engine choose per refresh between differential
// maintenance and full re-evaluation.
//
// Deprecated: renamed WithAdaptiveMaint; behavior is unchanged. (For
// the adaptive refresh *policy*, see AdaptivePolicy.)
func Adaptive() ViewOption { return WithAdaptiveMaint() }

// WithFilter enables the §4 irrelevant-update pre-filter for the
// view's differential maintenance.
func WithFilter() ViewOption {
	return ViewOption{name: "filtered", apply: func(c *db.ViewConfig) { c.Maint.Filter = true }}
}

// WithoutPrefixSharing evaluates truth-table rows independently
// instead of sharing join prefixes. Exposed for experimentation; the
// default (sharing) is faster.
func WithoutPrefixSharing() ViewOption {
	return ViewOption{name: "rowbyrow", apply: func(c *db.ViewConfig) { c.Maint.Strategy = diffeval.StrategyRowByRow }}
}

// CreateView defines and materializes a view.
func (d *DB) CreateView(name string, spec ViewSpec, opts ...ViewOption) error {
	if d.readonly {
		return ErrReadOnlyReplica
	}
	opts = d.withDefaultPolicy(opts)
	if err := checkOptions(opts); err != nil {
		return err
	}
	defer d.lockIfDurable()()
	v, err := spec.build(name)
	if err != nil {
		return err
	}
	if err := d.engine().CreateView(v, buildConfig(opts)); err != nil {
		return err
	}
	return d.logStmt(walStmt{Kind: "view", Name: name, Spec: spec, Options: optionNames(opts)})
}

// withDefaultPolicy materializes the database's WithDefaultPolicy into
// a view's option list when the caller chose no policy themselves.
// Appending (rather than remembering the default engine-side) makes
// the choice durable: the logged statement names the policy, so a
// reopen under a different default replays the view unchanged.
func (d *DB) withDefaultPolicy(opts []ViewOption) []ViewOption {
	if d.defaultPolicy == nil {
		return opts
	}
	for _, o := range opts {
		if o.when != nil {
			return opts
		}
	}
	return append(append(make([]ViewOption, 0, len(opts)+1), opts...), *d.defaultPolicy)
}

func optionNames(opts []ViewOption) []string {
	names := make([]string, len(opts))
	for i, o := range opts {
		names[i] = o.name
	}
	return names
}

func buildConfig(opts []ViewOption) db.ViewConfig {
	var cfg db.ViewConfig
	cfg.EvalOpt.Greedy = true
	// Adaptive satisfiability: the paper's Floyd for small conjunctions,
	// Bellman–Ford once the variable count makes O(n³) dominate
	// (C-SAT-N3). Options may still pin a concrete method.
	cfg.Maint.FilterOptions.Method = satgraph.MethodAdaptive
	for _, o := range opts {
		o.apply(&cfg)
	}
	return cfg
}

// CreateJoinView defines a natural-join view R1 ⋈ R2 ⋈ … ⋈ Rp (§5.3):
// operands join on equality of all shared attribute names, each
// emitted once.
func (d *DB) CreateJoinView(name string, rels []string, opts ...ViewOption) error {
	if d.readonly {
		return ErrReadOnlyReplica
	}
	opts = d.withDefaultPolicy(opts)
	if err := checkOptions(opts); err != nil {
		return err
	}
	defer d.lockIfDurable()()
	if err := d.createJoinViewCore(name, rels, opts); err != nil {
		return err
	}
	return d.logStmt(walStmt{Kind: "joinview", Name: name, Rels: rels, Options: optionNames(opts)})
}

func (d *DB) createJoinViewCore(name string, rels []string, opts []ViewOption) error {
	v, err := expr.NaturalJoin(name, d.engine().Scheme(), rels...)
	if err != nil {
		return err
	}
	return d.engine().CreateView(v, buildConfig(opts))
}

// DropView removes a view.
func (d *DB) DropView(name string) error {
	if d.readonly {
		return ErrReadOnlyReplica
	}
	defer d.lockIfDurable()()
	if err := d.engine().DropView(name); err != nil {
		return err
	}
	return d.logStmt(walStmt{Kind: "dropview", Name: name})
}

// Op is one operation inside a transaction.
type Op struct {
	del  bool
	rel  string
	vals []int64
}

// Insert builds an insert operation.
func Insert(rel string, vals ...int64) Op { return Op{rel: rel, vals: vals} }

// Delete builds a delete operation.
func Delete(rel string, vals ...int64) Op { return Op{del: true, rel: rel, vals: vals} }

// Update builds the delete-then-insert pair that modifies a tuple in
// place. Relations are sets of whole tuples, so an update is exactly
// this pair; wrapping both in one transaction keeps the change atomic
// and lets net-effect computation cancel no-op updates.
func Update(rel string, oldVals, newVals []int64) []Op {
	return []Op{Delete(rel, oldVals...), Insert(rel, newVals...)}
}

// TxInfo summarizes a committed transaction.
type TxInfo struct {
	Inserted       int // net tuples inserted across base relations
	Deleted        int // net tuples deleted across base relations
	ViewsRefreshed int // immediate views brought up to date
	ViewsDeferred  int // deferred views that queued the change

	// Trace identifies the commit's span tree in an attached
	// hierarchical tracer (obs.FlightRecorder); 0 when untraced.
	Trace uint64
}

// Exec runs the operations as one atomic transaction. Net semantics
// apply: inserting a present tuple or deleting an absent one is a
// no-op, and churn that cancels within the transaction never reaches
// the views.
func (d *DB) Exec(ops ...Op) (TxInfo, error) {
	return d.ExecContext(context.Background(), ops...)
}

// ExecContext is Exec with cancellation: the context is checked before
// the commit starts and — under group commit — while the transaction
// waits in the scheduler queue, so a caller that disconnects abandons
// its queued wait instead of holding a group slot. A transaction whose
// group leader has already claimed it runs to its verdict; a commit is
// never torn back out of a batch.
func (d *DB) ExecContext(ctx context.Context, ops ...Op) (TxInfo, error) {
	if err := ctx.Err(); err != nil {
		return TxInfo{}, err
	}
	if d.readonly {
		return TxInfo{}, ErrReadOnlyReplica
	}
	d.gmu.RLock()
	if d.engine().GroupCommitEnabled() {
		defer d.gmu.RUnlock()
		return d.execGrouped(ctx, ops)
	}
	d.gmu.RUnlock()
	defer d.lockIfDurable()()
	if err := ctx.Err(); err != nil {
		return TxInfo{}, err
	}
	info, err := d.execCore(ops)
	if err != nil {
		return TxInfo{}, err
	}
	if d.wal != nil {
		if err := d.logStmt(walStmt{Kind: "tx", Ops: opsToWal(ops)}); err != nil {
			return TxInfo{}, err
		}
	}
	return info, nil
}

// execGrouped rides the group-commit path: the statement is encoded up
// front, and the engine's leader logs it (one batched fsync for the
// whole group) before the transaction becomes visible, so — unlike the
// serial apply-then-log path above — a logging failure aborts the
// transaction instead of surfacing after the fact.
func (d *DB) execGrouped(ctx context.Context, ops []Op) (TxInfo, error) {
	var payload []byte
	if d.wal != nil {
		p, err := encodeStmt(walStmt{Kind: "tx", Ops: opsToWal(ops)})
		if err != nil {
			return TxInfo{}, err
		}
		payload = p
	}
	tx := buildTx(ops)
	res, err := d.engine().ExecuteLoggedCtx(ctx, &tx, payload)
	if err != nil {
		return TxInfo{}, err
	}
	return txInfoFrom(res), nil
}

func opsToWal(ops []Op) []walOp {
	wops := make([]walOp, len(ops))
	for i, o := range ops {
		wops[i] = walOp{Del: o.del, Rel: o.rel, Vals: o.vals}
	}
	return wops
}

// EnableGroupCommit coalesces concurrent Exec calls into commit
// groups: one batched log append (a single fsync covers every member),
// one composed maintenance pass over the group's net delta, and one
// snapshot publish. maxBatch caps the group size (<= 0 selects the
// default); window is how long the leader waits for followers once
// there is evidence of concurrency (0 disables the wait — groups form
// only from what has already queued). Transactions keep their
// individual atomicity: a member that fails validation is excluded and
// retried alone without poisoning the rest of its group.
//
// Deprecated: pass WithGroupCommit to Open or OpenDurable instead.
func (d *DB) EnableGroupCommit(maxBatch int, window time.Duration) {
	if d.readonly {
		return // followers apply wire batches; no local scheduler
	}
	d.gmu.Lock()
	defer d.gmu.Unlock()
	var logBatch func([][]byte) error
	if d.wal != nil {
		logBatch = d.logPayloadBatch
	}
	d.engine().EnableGroupCommit(maxBatch, window, logBatch)
}

// DisableGroupCommit drains any queued transactions and restores the
// serial commit path. It blocks until in-flight grouped Exec calls
// have completed.
func (d *DB) DisableGroupCommit() {
	d.gmu.Lock()
	defer d.gmu.Unlock()
	d.engine().DisableGroupCommit()
}

// GroupCommitEnabled reports whether Exec currently rides the
// group-commit scheduler.
func (d *DB) GroupCommitEnabled() bool { return d.engine().GroupCommitEnabled() }

func (d *DB) execCore(ops []Op) (TxInfo, error) {
	tx := buildTx(ops)
	res, err := d.engine().Execute(&tx)
	if err != nil {
		return TxInfo{}, err
	}
	return txInfoFrom(res), nil
}

func buildTx(ops []Op) delta.Tx {
	var tx delta.Tx
	nv := 0
	for _, o := range ops {
		nv += len(o.vals)
	}
	tx.Reserve(len(ops), nv)
	for _, o := range ops {
		// Tx.Insert/Delete copy the values into the transaction's
		// arena, so the op's slice can be handed over as-is.
		t := tuple.Tuple(o.vals)
		if o.del {
			tx.Delete(o.rel, t)
		} else {
			tx.Insert(o.rel, t)
		}
	}
	return tx
}

func txInfoFrom(res db.TxResult) TxInfo {
	info := TxInfo{ViewsRefreshed: res.ViewsRefreshed, ViewsDeferred: res.ViewsDeferred, Trace: res.Trace}
	for _, u := range res.Updates {
		if u.Inserts != nil {
			info.Inserted += u.Inserts.Len()
		}
		if u.Deletes != nil {
			info.Deleted += u.Deletes.Len()
		}
	}
	return info
}

// Row is one view tuple with its §5.2 multiplicity counter (the number
// of derivations supporting it). Values of a row returned by View point
// into immutable snapshot storage shared with every other reader and
// must not be written.
type Row struct {
	Values []int64
	Count  int64
}

func rowsOf(cts []relation.CountedTuple) []Row {
	out := make([]Row, len(cts))
	for i, ct := range cts {
		out[i] = Row{Values: ct.Tuple, Count: ct.Count}
	}
	return out
}

// readView resolves one version of a view under the read's freshness
// contract (see View).
func (d *DB) readView(name string, opts []QueryOption) (db.ViewVersion, error) {
	if bound, ok := queryBound(opts); ok {
		return d.engine().ViewFresh(name, bound)
	}
	return d.engine().ReadView(name)
}

// View returns the current contents of a materialized view, sorted.
// Without options the read is a lock-free snapshot: a deferred view
// may lag its base relations. QueryOptions state the read's own
// freshness contract — View(name, MaxStale(d)) refreshes the view
// synchronously first only when its oldest unapplied change is older
// than d, and Consistent() demands exact freshness — so callers no
// longer pair Refresh with View by hand.
//
// Each version of a view is sorted once, by its first reader; every
// call returns a fresh slice, which the caller may reorder or truncate,
// but the Values inside point into immutable snapshot storage and must
// not be written.
func (d *DB) View(name string, opts ...QueryOption) ([]Row, error) {
	v, err := d.readView(name, opts)
	if err != nil {
		return nil, err
	}
	return rowsOf(v.Rows()), nil
}

// ViewSchema returns the attribute names of a view's result.
func (d *DB) ViewSchema(name string) ([]string, error) {
	v, err := d.engine().ReadView(name)
	if err != nil {
		return nil, err
	}
	names, err := v.Schema()
	if err != nil {
		return nil, err
	}
	return append([]string(nil), names...), nil
}

// ViewJSON returns the current version of a view as the JSON object
// {"rows":[…],"schema":[…]} — rows as View returns them, schema as
// ViewSchema does — together with its row count and its policy, all
// from one read snapshot. The bytes are rendered once per version and
// shared by every reader, so they must not be modified. They equal
// encoding/json's rendering of map[string]any{"rows": rows, "schema":
// schema}.
func (d *DB) ViewJSON(name string) (obj []byte, count int, p PolicyInfo, err error) {
	v, err := d.engine().ReadView(name)
	if err != nil {
		return nil, 0, PolicyInfo{}, err
	}
	if obj, err = v.JSON(renderViewJSON); err != nil {
		return nil, 0, PolicyInfo{}, err
	}
	return obj, v.Len(), policyInfo(v), nil
}

// renderViewJSON renders what encoding/json makes of
// map[string]any{"rows": rowsOf(rows), "schema": schema}: map keys in
// sorted order, Row fields in declaration order.
func renderViewJSON(rows []relation.CountedTuple, schema []string) []byte {
	b := make([]byte, 0, 64+len(rows)*(24+8*len(schema)))
	b = append(b, `{"rows":[`...)
	for i, ct := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Values":[`...)
		for j, x := range ct.Tuple {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, x, 10)
		}
		b = append(b, `],"Count":`...)
		b = strconv.AppendInt(b, ct.Count, 10)
		b = append(b, '}')
	}
	b = append(b, `],"schema":[`...)
	for i, s := range schema {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendString(b, s)
	}
	return append(b, "]}"...)
}

// Rows returns the sorted contents of a base relation.
func (d *DB) Rows(rel string) ([][]int64, error) {
	r, err := d.engine().Relation(rel)
	if err != nil {
		return nil, err
	}
	ts := r.Tuples()
	out := make([][]int64, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out, nil
}

// Refresh brings a deferred view up to date (§6 snapshot refresh).
func (d *DB) Refresh(name string) error { return d.engine().RefreshView(name) }

// RefreshAll refreshes every deferred view.
func (d *DB) RefreshAll() error { return d.engine().RefreshAll() }

// Relations lists base relation names in creation order.
func (d *DB) Relations() []string { return d.engine().Relations() }

// Views lists view names in creation order.
func (d *DB) Views() []string { return d.engine().Views() }

// Stats reports a view's accumulated maintenance counters.
type Stats struct {
	Transactions  int // transactions that touched the view's operands
	Refreshes     int // differential refreshes performed
	Recomputes    int // full re-evaluations performed
	RowsEvaluated int // truth-table rows completed
	JoinSteps     int // join pipeline steps executed
	FilteredOut   int // update tuples discarded as irrelevant (§4)
	DeltaInserts  int // view tuples inserted by deltas
	DeltaDeletes  int // view tuples deleted by deltas
	PendingTx     int // transactions awaiting a deferred refresh
	ShardTasks    int // per-shard maintenance tasks run on the pool (WithShards)
	ShardsPruned  int // shard sub-deltas skipped by the §4 key-range test
}

// Stats returns a view's maintenance counters.
func (d *DB) Stats(name string) (Stats, error) {
	s, err := d.engine().ViewStats(name)
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Transactions:  s.Transactions,
		Refreshes:     s.Refreshes,
		Recomputes:    s.Recomputes,
		RowsEvaluated: s.RowsEvaluated,
		JoinSteps:     s.JoinSteps,
		FilteredOut:   s.FilteredOut,
		DeltaInserts:  s.DeltaInserts,
		DeltaDeletes:  s.DeltaDeletes,
		PendingTx:     s.PendingTx,
		ShardTasks:    s.ShardTasks,
		ShardsPruned:  s.ShardsPruned,
	}, nil
}

// Query evaluates an ad-hoc SPJ expression without materializing it.
func (d *DB) Query(spec ViewSpec) ([]Row, error) {
	return d.QueryContext(context.Background(), spec)
}

// QueryContext is Query with cancellation. Evaluation runs lock-free
// against an immutable snapshot and is not interruptible once started;
// the context gates entry, so an already-abandoned caller (e.g. a
// disconnected HTTP client) skips the evaluation entirely.
func (d *DB) QueryContext(ctx context.Context, spec ViewSpec) ([]Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := spec.build("(query)")
	if err != nil {
		return nil, err
	}
	c, err := d.engine().Query(v, eval.Options{Greedy: true})
	if err != nil {
		return nil, err
	}
	return rowsOf(c.Tuples()), nil
}

// Change is one view-change notification delivered to a subscriber.
type Change struct {
	View    string
	Inserts []Row
	Deletes []Row
}

// Subscribe registers an alerter on a view — the Buneman–Clemons
// application the paper cites: after every transaction or refresh that
// changes the view, the callback receives the exact insert and delete
// sets (which differential maintenance computed anyway). The callback
// runs synchronously after commit with no engine lock held; it may
// read the database but must not write to it. The returned cancel
// function removes the subscription.
func (d *DB) Subscribe(view string, fn func(Change)) (cancel func(), err error) {
	id, err := d.engine().Subscribe(view, func(name string, ins, del *relation.Counted) {
		fn(Change{View: name, Inserts: rowsOf(ins.Tuples()), Deletes: rowsOf(del.Tuples())})
	})
	if err != nil {
		return nil, err
	}
	return func() { _ = d.engine().Unsubscribe(view, id) }, nil
}

// Save writes a durable snapshot of the database — scheme, base
// relation contents, and view definitions with their configurations —
// in a versioned binary format readable by Load.
func (d *DB) Save(w io.Writer) error { return d.engine().Save(w) }

// Load reads a snapshot produced by Save, returning a database with
// all relations restored and all views re-materialized. The snapshot
// format is shard-independent, so a snapshot written by any database
// loads under any WithShards setting.
func Load(r io.Reader, opts ...Option) (*DB, error) {
	cfg := buildOpenConfig(opts)
	eng, err := db.Load(r, cfg.engineOptions()...)
	if err != nil {
		return nil, err
	}
	d := &DB{}
	d.eng.Store(eng)
	d.applyRuntime(cfg)
	return d, nil
}

// Relevant applies the §4 test directly: it reports whether inserting
// or deleting the given tuple in the named base relation could affect
// the named view in ANY database state. A false answer is a proof of
// irrelevance (Theorem 4.1). The tuple is checked against every view
// operand that references the relation; the per-view checkers (and
// their prepared invariant graphs) are cached inside the engine.
func (d *DB) Relevant(view, rel string, vals ...int64) (bool, error) {
	return d.engine().Relevant(view, rel, tuple.New(vals...))
}

// Explain describes how a view is defined and maintained: operands,
// condition, projection, refresh mode, policy, row strategy, and the
// persistent indexes available to its delta joins.
func (d *DB) Explain(view string) (string, error) {
	return d.engine().Explain(view)
}

// ExplainAnalyze is Explain plus an "analyze" section with actual
// numbers: lifetime maintenance counters, current staleness, and the
// measured stage timings of the view's most recent maintenance pass —
// queue wait, compute, install, shard fan-out, delta size, and the
// trace id to look the carrying commit up in the flight recorder.
func (d *DB) ExplainAnalyze(view string) (string, error) {
	return d.engine().ExplainAnalyze(view)
}

// StageSummary is one stage's cumulative cost in CriticalPathSummary.
type StageSummary = db.StageSummary

// CriticalPathSummary attributes cumulative commit time to pipeline
// stages; see CriticalPath.
type CriticalPathSummary = db.CriticalPathSummary

// CriticalPath returns the database's cumulative commit-time
// attribution: for every pipeline stage (queue wait, net effects,
// composition, the slowest parallel maintenance task, validation,
// fsync, install, snapshot publish), the total seconds spent there and
// its share of the critical path. Counters accumulate from open; the
// read is lock-free.
func (d *DB) CriticalPath() CriticalPathSummary { return d.engine().CriticalPath() }

// Staleness reports each view's staleness in seconds: the age of its
// oldest unapplied change, 0 for a fresh view. Immediate views are
// always fresh; a deferred view goes stale the moment a commit queues
// backlog for it and snaps back to 0 when refreshed. As a side effect
// the per-view mview_view_staleness_seconds gauges are brought up to
// date.
func (d *DB) Staleness() map[string]float64 { return d.engine().Staleness() }

// SnapshotAge reports the age of the published read snapshot — how
// long ago the last commit, refresh, or DDL statement published.
func (d *DB) SnapshotAge() time.Duration { return d.engine().SnapshotAge() }
