// Package db assembles the substrates into a small main-memory
// database engine with incrementally maintained materialized views:
// a catalog of base relations, SPJ view definitions, transaction
// execution, and view refresh in the two regimes the paper discusses —
// immediate maintenance as the last step of each transaction (§5), and
// deferred "snapshot refresh" (§6) in which net changes accumulate and
// the view is brought up to date on demand.
//
// Each view can also be pinned to full re-evaluation instead of
// differential maintenance, which is the paper's baseline and the
// engine's comparison point.
package db

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// Policy says how a view is brought up to date.
type Policy uint8

const (
	// PolicyDifferential uses §5's differential re-evaluation.
	PolicyDifferential Policy = iota
	// PolicyRecompute re-evaluates the defining expression from
	// scratch on every refresh — the paper's baseline.
	PolicyRecompute
	// PolicyAdaptive chooses per refresh: differential while the
	// accumulated delta is a small fraction of the base relations,
	// full re-evaluation once it grows past DefaultAdaptiveThreshold. This
	// realizes the paper's closing research question — "determine
	// under what circumstances differential re-evaluation is more
	// efficient than complete re-evaluation" — as a simple
	// size-ratio cost model.
	PolicyAdaptive
)

// DefaultAdaptiveThreshold is the delta-to-base size ratio above which
// PolicyAdaptive switches to full re-evaluation.
const DefaultAdaptiveThreshold = 0.25

// RefreshKind names a when-policy: the schedule on which a view's
// maintenance runs, orthogonal to Policy (how a refresh computes). The
// scheduled kinds register the view with the engine's refresh
// scheduler (scheduler.go).
type RefreshKind uint8

const (
	// RefreshOnCommit maintains the view inside every commit (§5) —
	// always fresh, full maintenance cost on the write path.
	RefreshOnCommit RefreshKind = iota
	// RefreshOnDemand defers all maintenance to explicit RefreshView
	// calls — the §6 snapshot regime with no schedule at all.
	RefreshOnDemand
	// RefreshEvery defers maintenance and refreshes on a fixed
	// interval driven by the engine's scheduler.
	RefreshEvery
	// RefreshMaxStaleness defers maintenance under a staleness SLO:
	// the scheduler refreshes proactively before the age of the oldest
	// unapplied change reaches the bound.
	RefreshMaxStaleness
	// RefreshAdaptive lets the engine flip the view between on-commit
	// and on-demand from the measured write/read ratio: read-heavy
	// views pay maintenance on the write path to serve fresh reads,
	// write-heavy views shed it into a backlog.
	RefreshAdaptive
)

// RefreshSpec is a complete when-policy: the kind plus its parameter.
type RefreshSpec struct {
	Kind     RefreshKind
	Interval time.Duration // RefreshEvery: the period
	Bound    time.Duration // RefreshMaxStaleness: the SLO bound
}

// defers reports whether a view under the spec starts out deferring
// its maintenance out of the commit. RefreshAdaptive starts on-commit
// (fresh until the workload proves write-heavy); the scheduler then
// flips viewState.deferred at runtime without touching the spec.
func (s RefreshSpec) defers() bool {
	return s.Kind != RefreshOnCommit && s.Kind != RefreshAdaptive
}

// scheduled reports whether the kind needs the engine scheduler.
func (s RefreshSpec) scheduled() bool {
	switch s.Kind {
	case RefreshEvery, RefreshMaxStaleness, RefreshAdaptive:
		return true
	}
	return false
}

// String renders the spec in the stable option-name syntax that
// round-trips through the catalog parsers (oncommit, ondemand,
// every=1s, maxstale=500ms, autopolicy).
func (s RefreshSpec) String() string {
	switch s.Kind {
	case RefreshOnDemand:
		return "ondemand"
	case RefreshEvery:
		return "every=" + s.Interval.String()
	case RefreshMaxStaleness:
		return "maxstale=" + s.Bound.String()
	case RefreshAdaptive:
		return "autopolicy"
	default:
		return "oncommit"
	}
}

// ViewConfig configures one materialized view: When says when it
// refreshes, Policy how.
type ViewConfig struct {
	When   RefreshSpec
	Policy Policy
	Maint  diffeval.Options // differential maintenance options
}

// ViewStats accumulates maintenance counters for one view.
type ViewStats struct {
	Transactions  int // transactions whose updates reached this view
	Refreshes     int // differential refreshes performed
	Recomputes    int // full re-evaluations performed
	RowsEvaluated int // truth-table rows completed (differential)
	JoinSteps     int // join pipeline steps executed (differential)
	// BaseRowsScanned counts the base rows maintenance read because no
	// index served a step (diffeval.Stats.BaseRowsScanned); a recompute
	// counts every row it reads.
	BaseRowsScanned int
	FilteredOut     int // update tuples discarded by the §4 filter
	DeltaInserts    int // distinct view tuples whose count a delta raised
	DeltaDeletes    int // distinct view tuples whose count a delta lowered
	PendingTx       int // transactions awaiting a deferred refresh
}

type viewState struct {
	name    string
	bound   *expr.Bound
	cfg     ViewConfig
	maint   *diffeval.Maintainer
	data    *relation.Counted
	pending map[string]delta.Update // composed net updates since last refresh
	stats   ViewStats
	// deferred says commits stage the view's changes in pending instead
	// of maintaining it. It follows cfg.When (RefreshSpec.defers) except
	// under RefreshAdaptive, where the scheduler flips it at runtime.
	deferred bool
	vo       *viewObs // per-view metric handles; nil when obs is off
	// away counts the commits the relevance index kept wholly away from
	// the view; shared with every published snapshot (see routedAway).
	// routeSlot is 1 + the view's position among the current commit's
	// routing candidates, 0 outside routing (route.go).
	away      *routedAway
	routeSlot int
	// dataShared marks data as referenced by a published snapshot that
	// a reader may hold: maintenance must clone it before the next
	// in-place mutation (copy-on-write; snapshot.go). snapDirty marks
	// any change — data, stats, or backlog — since the last publish; a
	// clean view's snapView is carried into the next snapshot as a
	// single pointer.
	dataShared bool
	snapDirty  bool
	// written marks an install that changed data since the last
	// publish; folded is the last such install's differential delta
	// and foldedOnto the version it folded onto (both nil for a
	// recompute or a per-transaction chain). publishLocked builds the
	// next version's read memo from them (nextMemo, memo.go).
	written    bool
	folded     *diffeval.ViewDelta
	foldedOnto *relation.Counted
	// pendingSince is when the view's oldest unapplied change was
	// staged: set on the 0→nonzero backlog transition, cleared by
	// refresh. Its age is the view's staleness (Staleness, trace.go).
	// lastMaint records the most recent maintenance's actual stage
	// timings, for ExplainAnalyze. Both are guarded by mu and copied
	// into the view's snapView at publish.
	pendingSince time.Time
	lastMaint    maintRecord
	// reads counts snapshot reads of this view since creation. The
	// pointer is shared with every published snapView so the lock-free
	// read path can bump it; the scheduler's adaptive when-policy
	// compares its growth against write traffic to flip deferred.
	reads *atomic.Int64
	// subscribers receive the view's deltas after each refresh — the
	// alerter mechanism of Buneman & Clemons that §1–2 cite as a
	// motivating application: the §4 filter suppresses wake-ups for
	// irrelevant updates, and the differential delta is exactly the
	// alert payload.
	subscribers map[int]Subscriber
	nextSubID   int
}

// Subscriber receives a view's net change after a refresh changes the
// view: a diffeval.ViewDelta run, sorted by tuple, of each changed view
// tuple with the signed change of its count. A change that cancels out
// fires nothing. The run is shared with the view's next read memo
// (memo.go) and must not be modified. Callbacks run
// synchronously after the commit or refresh completes, with no engine
// lock held, so they may read the engine; they should not write to it.
type Subscriber func(view string, run []relation.CountedTuple)

// notification is a queued subscriber callback, fired after the engine
// lock is released.
type notification struct {
	sub  Subscriber
	view string
	run  []relation.CountedTuple
}

func (st *viewState) notifications(view string, run []relation.CountedTuple) []notification {
	if len(st.subscribers) == 0 || len(run) == 0 {
		return nil
	}
	ids := make([]int, 0, len(st.subscribers))
	for id := range st.subscribers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]notification, 0, len(ids))
	for _, id := range ids {
		out = append(out, notification{sub: st.subscribers[id], view: view, run: run})
	}
	if st.vo != nil {
		st.vo.notifications.Add(int64(len(out)))
	}
	return out
}

func fire(ns []notification) {
	for _, n := range ns {
		n.sub(n.view, n.run)
	}
}

// countedDiff returns the run that takes view state old to new (used
// to notify subscribers when a refresh recomputed the view instead of
// producing a differential delta). new becomes the live view, which
// later commits write in place, so the run copies new's tuples; old is
// never written again.
func countedDiff(old, new *relation.Counted) []relation.CountedTuple {
	var run []relation.CountedTuple
	new.Each(func(t tuple.Tuple, n int64) {
		if diff := n - old.Count(t); diff != 0 {
			run = append(run, relation.CountedTuple{Tuple: t.Clone(), Count: diff})
		}
	})
	old.Each(func(t tuple.Tuple, n int64) {
		if !new.Has(t) {
			run = append(run, relation.CountedTuple{Tuple: t, Count: -n})
		}
	})
	slices.SortFunc(run, relation.ByTuple)
	return run
}

// Engine is a main-memory database with materialized views. All
// methods are safe for concurrent use; writes are serialized. Reads
// are served from an immutable copy-on-write snapshot (snapshot.go)
// and never contend with the commit pipeline.
type Engine struct {
	mu        sync.RWMutex
	scheme    *schema.Database
	base      map[string]*relation.Relation
	views     map[string]*viewState
	viewOrder []string
	// o carries the attached observability sinks (SetObs). Atomic so
	// the commit hot path can check it without taking the engine lock;
	// nil means instrumentation is off and costs one pointer load.
	o atomic.Pointer[engineObs]
	// snap is the published read snapshot (never nil after New);
	// baseShared marks base relations a snapshot references, which the
	// install stage must clone before applying updates in place, and
	// fresh records what the latest publish newly marked, for
	// retireLocked to hand back (snapshot.go). Guarded by mu for
	// writes; snap is loaded lock-free by every read path, through
	// currentSnapshot.
	snap       atomic.Pointer[Snapshot]
	baseShared map[string]bool
	fresh      struct {
		bases []string
		views []*viewState
	}
	// retireHook, when set, runs in retireLocked once the published
	// snapshot is retired and before its publish: the retire window.
	// Same-package tests set it before first use; nil otherwise.
	retireHook func()
	// group is the group-commit scheduler (group.go); nil means every
	// Execute commits solo. Atomic so the Execute hot path routes
	// without taking the engine lock.
	group atomic.Pointer[group]
	// ckptDirty marks the base relations that changed since the last
	// checkpoint interval started (checkpoint.go). Guarded by mu;
	// commits mark the relations their net delta touched.
	ckptDirty map[string]bool
	// crit accumulates per-stage commit time for critical-path
	// attribution (trace.go). Lock-free: written by commitTrace.close,
	// read by CriticalPath.
	crit critAccum
	// sched drives the scheduled when-policies — Every intervals,
	// MaxStaleness SLO deadlines and adaptive flips — off one timer
	// wheel (scheduler.go). Created at New, its goroutine starts lazily.
	sched *scheduler
	// routes holds the per-relation relevance indexes over the filtered
	// views (route.go): nil after view DDL, rebuilt by the next commit.
	// routeCands is that path's per-commit scratch. Guarded by mu.
	routes     map[string]*relRoute
	routeCands []routeCand
	// logOne appends a solo commit's record to the write-ahead log
	// (SetCommitLog); nil when the engine is not durable. Guarded by mu.
	logOne func([][]byte) error
	// now is the engine's wall clock (staleness stamps and the
	// scheduler's deadlines); tests substitute a fake. Immutable after
	// construction except by same-package tests before first use.
	now func() time.Time
}

// engineObs bundles the engine-wide metric handles, resolved once at
// SetObs so hot paths never take the registry lock. Per-view handles
// live on viewState.vo.
type engineObs struct {
	reg           *obs.Registry
	tr            obs.Tracer
	commits       *obs.Counter
	commitSeconds *obs.Histogram
	// Read-snapshot instrumentation: reads served lock-free, staleness
	// of the published snapshot at the last read, and publish cost.
	snapReads   *obs.Counter
	snapAge     *obs.Gauge
	snapPublish *obs.Histogram
	// View reads served from an already-built memo vs reads that built
	// (sorted or rendered) part of their version's memo (memo.go).
	viewReadsMemo   *obs.Counter
	viewReadsRender *obs.Counter
	// Group commit: transactions per group, and how long the scheduler
	// held a batch open waiting for stragglers.
	groupSize *obs.Histogram
	groupWait *obs.Histogram
	// stages are the mview_commit_stage_seconds{stage} histograms,
	// indexed by the stage constants in trace.go. Every batch observes
	// every stage (0 when a stage had no work), so per-stage sums give
	// the workload's critical-path attribution.
	stages [numStages]*obs.Histogram
}

// groupSizeBuckets spans the useful batch sizes (DefaultGroupMaxBatch
// is 64; obs.DefBuckets are latency buckets at the wrong scale).
var groupSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// viewObs holds one view's metric handles. All fields are created
// eagerly except the per-decision refresh histograms, which are cached
// on first use (callers hold the engine lock).
type viewObs struct {
	reg           *obs.Registry
	view          string
	refresh       map[string]*obs.Histogram // decision → latency
	filterOut     *obs.Counter
	filterPass    *obs.Counter
	pending       *obs.Gauge
	rows          *obs.Counter
	joinSteps     *obs.Counter
	notifications *obs.Counter
	staleness     *obs.Gauge
	sloBound      *obs.Gauge
}

func newViewObs(reg *obs.Registry, view string) *viewObs {
	l := obs.Labels{"view": view}
	return &viewObs{
		reg:     reg,
		view:    view,
		refresh: make(map[string]*obs.Histogram, 4),
		filterOut: reg.Counter("mview_filter_discarded_total",
			"Update tuples discarded by the §4 irrelevance filter.", l),
		filterPass: reg.Counter("mview_filter_passed_total",
			"Update tuples checked by the §4 irrelevance filter and kept.", l),
		pending: reg.Gauge("mview_view_pending_tx",
			"Transactions queued for a deferred (§6) refresh.", l),
		rows: reg.Counter("mview_diffeval_rows_total",
			"Truth-table rows completed by differential maintenance (§5.3).", l),
		joinSteps: reg.Counter("mview_diffeval_join_steps_total",
			"Join steps executed by differential maintenance.", l),
		notifications: reg.Counter("mview_subscriber_notifications_total",
			"Subscriber callbacks fanned out after refreshes.", l),
		staleness: reg.Gauge("mview_view_staleness_seconds", stalenessHelp, l),
		sloBound: reg.Gauge("mview_view_staleness_slo_seconds",
			"Configured staleness SLO bound (MaxStaleness policy; 0 = no bound).", l),
	}
}

// refreshHist returns the refresh-latency histogram for one
// maintenance decision. Callers hold the engine lock.
func (v *viewObs) refreshHist(decision string) *obs.Histogram {
	h := v.refresh[decision]
	if h == nil {
		h = v.reg.Histogram("mview_view_refresh_seconds",
			"View refresh latency by maintenance decision.", nil,
			obs.Labels{"view": v.view, "decision": decision})
		v.refresh[decision] = h
	}
	return h
}

// decisionLabel names the refresh decision for metrics: what ran
// (differential or recompute) and whether the adaptive cost model
// chose it.
func decisionLabel(cfg ViewConfig, chosen Policy) string {
	s := "differential"
	if chosen == PolicyRecompute {
		s = "recompute"
	}
	if cfg.Policy == PolicyAdaptive {
		return "adaptive_" + s
	}
	return s
}

// SetObs attaches a metrics registry and an optional tracer to the
// engine (either may be nil; both nil detaches). Existing and future
// views get per-view series; the differential maintainers forward
// spans and per-operand delta events to the tracer. With obs detached
// the commit path costs a single atomic pointer load.
func (e *Engine) SetObs(reg *obs.Registry, tr obs.Tracer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if reg == nil && tr == nil {
		e.o.Store(nil)
		for _, name := range e.viewOrder {
			e.views[name].vo = nil
			e.views[name].maint.Tracer = nil
		}
		return
	}
	o := &engineObs{
		reg: reg,
		tr:  tr,
		commits: reg.Counter("mview_commits_total",
			"Transactions committed.", nil),
		commitSeconds: reg.Histogram("mview_commit_seconds",
			"End-to-end transaction commit latency (net effects, immediate view refresh, index upkeep).", nil, nil),
		snapReads: reg.Counter("mview_snapshot_reads_total",
			"Reads served from the lock-free copy-on-write snapshot.", nil),
		snapAge: reg.Gauge("mview_snapshot_age_seconds",
			"Age of the published read snapshot at the last read (0 right after a publish).", nil),
		snapPublish: reg.Histogram("mview_snapshot_publish_seconds",
			"Time to build and publish a read snapshot at the end of a commit, refresh, or DDL statement.", nil, nil),
		viewReadsMemo: reg.Counter("mview_view_reads_total", viewReadsHelp,
			obs.Labels{"result": "memo"}),
		viewReadsRender: reg.Counter("mview_view_reads_total", viewReadsHelp,
			obs.Labels{"result": "render"}),
		groupSize: reg.Histogram("mview_group_commit_size",
			"Transactions coalesced into one group commit (one fsync, one maintenance pass, one snapshot publish).",
			groupSizeBuckets, nil),
		groupWait: reg.Histogram("mview_group_wait_seconds",
			"Time the group-commit scheduler held a batch open waiting for stragglers (0 for solo commits).", nil, nil),
	}
	for i := 0; i < numStages; i++ {
		o.stages[i] = reg.Histogram("mview_commit_stage_seconds",
			"Commit pipeline stage latency (trace.go stage taxonomy). Every batch observes every stage, 0 when the stage had no work.",
			nil, obs.Labels{"stage": stageNames[i]})
	}
	e.o.Store(o)
	for _, name := range e.viewOrder {
		st := e.views[name]
		st.vo = newViewObs(reg, name)
		st.vo.sloBound.Set(st.cfg.When.Bound.Seconds())
		st.maint.Tracer = tr
	}
}

// New returns an empty engine.
func New() *Engine {
	db, err := schema.NewDatabase()
	if err != nil {
		panic(err) // unreachable: empty database scheme is valid
	}
	e := &Engine{
		scheme:     db,
		base:       make(map[string]*relation.Relation),
		views:      make(map[string]*viewState),
		baseShared: make(map[string]bool),
		ckptDirty:  make(map[string]bool),
		now:        time.Now,
	}
	e.sched = newScheduler(e)
	e.publishLocked() // the engine is born with an empty snapshot
	return e
}

// ensureIndexes adds any missing index on the equi-join columns of the
// bound view's condition to the base relation itself, so every later
// instance of it — the live base, snapshots, the clones computations
// read — carries the index. Adding one writes the relation, so a base a
// published snapshot shares is cloned first. Callers hold the engine
// lock.
func (e *Engine) ensureIndexes(b *expr.Bound) error {
	ensure := func(v pred.Var) error {
		ops := b.OperandsOf(v)
		if len(ops) != 1 {
			return nil
		}
		op := b.Operands[ops[0]]
		pos, ok := op.QScheme.Pos(schema.Attribute(v))
		if !ok {
			return nil
		}
		r := e.base[op.Rel]
		if r.Index(pos) != nil {
			return nil
		}
		if e.baseShared[op.Rel] {
			r = r.Clone()
			e.base[op.Rel] = r
			e.baseShared[op.Rel] = false
		}
		return r.AddIndex(pos)
	}
	for _, conj := range b.Where.Conjuncts {
		for _, a := range conj.Atoms {
			if a.Op != pred.OpEQ || !a.HasRightVar() || a.C != 0 {
				continue
			}
			if err := ensure(a.Left); err != nil {
				return err
			}
			if err := ensure(a.Right); err != nil {
				return err
			}
		}
	}
	return nil
}

// CreateRelation adds a base relation with the given attributes.
func (e *Engine) CreateRelation(name string, attrs ...schema.Attribute) error {
	return e.createRelations([]relDef{{name, attrs}})
}

// relDef names a base relation to create.
type relDef struct {
	name  string
	attrs []schema.Attribute
}

// createRelations adds base relations as one DDL step — one scheme
// clone and one publish however many there are, as a catalog segment
// restores them — or, on error, none of them.
func (e *Engine) createRelations(defs []relDef) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Copy-on-write: published snapshots reference e.scheme, so DDL
	// swaps in an extended clone instead of mutating it.
	next := e.scheme.Clone()
	for _, d := range defs {
		if _, dup := e.views[d.name]; dup {
			return fmt.Errorf("db: name %q already names a view", d.name)
		}
		s, err := schema.NewScheme(d.attrs...)
		if err != nil {
			return err
		}
		if err := next.Add(&schema.RelScheme{Name: d.name, Scheme: s}); err != nil {
			return err
		}
	}
	e.scheme = next
	for _, d := range defs {
		rs, _ := next.Rel(d.name)
		e.base[d.name] = relation.New(rs.Scheme)
		e.ckptDirty[d.name] = true
	}
	e.publishLocked()
	return nil
}

// Scheme exposes the database scheme (for binding ad-hoc
// expressions). The result is the current snapshot's scheme and is
// immutable: DDL copies-on-write, so holding it across a concurrent
// CreateRelation is safe.
func (e *Engine) Scheme() *schema.Database {
	return e.currentSnapshot().scheme
}

// Relations returns the base relation names in creation order.
func (e *Engine) Relations() []string {
	return e.currentSnapshot().scheme.Names()
}

// Views returns the view names in creation order.
func (e *Engine) Views() []string {
	s := e.currentSnapshot()
	out := make([]string, len(s.viewOrder))
	copy(out, s.viewOrder)
	return out
}

// Relation returns a base relation as of the current read snapshot.
// The result is immutable — shared with the snapshot, not cloned —
// and must not be modified; it never changes once returned (writers
// copy-on-write), so iterating it requires no lock.
func (e *Engine) Relation(name string) (*relation.Relation, error) {
	s := e.currentSnapshot()
	r, ok := s.base[name]
	if !ok {
		return nil, fmt.Errorf("db: unknown relation %q", name)
	}
	return r, nil
}

// CreateView defines and immediately materializes a view.
func (e *Engine) CreateView(v expr.View, cfg ViewConfig) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.views[v.Name]; dup {
		return fmt.Errorf("db: duplicate view %q", v.Name)
	}
	if _, clash := e.base[v.Name]; clash {
		return fmt.Errorf("db: name %q already names a base relation", v.Name)
	}
	bound, err := expr.Bind(v, e.scheme)
	if err != nil {
		return err
	}
	maint, err := diffeval.NewMaintainer(bound, cfg.Maint)
	if err != nil {
		return err
	}
	if err := e.ensureIndexes(bound); err != nil {
		return err
	}
	data, _, err := maint.Materialize(operandInstances(bound, nil, e.base), nil)
	if err != nil {
		return err
	}
	st := &viewState{
		name:     v.Name,
		bound:    bound,
		cfg:      cfg,
		maint:    maint,
		data:     data,
		pending:  make(map[string]delta.Update),
		deferred: cfg.When.defers(),
		away:     new(routedAway),
		reads:    new(atomic.Int64),
	}
	if o := e.o.Load(); o != nil {
		st.vo = newViewObs(o.reg, v.Name)
		st.vo.sloBound.Set(cfg.When.Bound.Seconds())
		maint.Tracer = o.tr
	}
	e.views[v.Name] = st
	e.viewOrder = append(e.viewOrder, v.Name)
	e.routes = nil
	e.publishLocked()
	if cfg.When.scheduled() {
		e.sched.ensure()
	}
	return nil
}

// DropView removes a view.
func (e *Engine) DropView(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.views[name]; !ok {
		return fmt.Errorf("db: unknown view %q", name)
	}
	delete(e.views, name)
	e.routes = nil
	for i, n := range e.viewOrder {
		if n == name {
			e.viewOrder = append(e.viewOrder[:i], e.viewOrder[i+1:]...)
			break
		}
	}
	e.publishLocked()
	return nil
}

// View returns a view's materialization as of the current read
// snapshot. The result is immutable — shared with the snapshot, not
// cloned — and must not be modified; concurrent commits publish new
// snapshots instead of mutating it, so a reader iterating the result
// never observes a commit. For deferred views it may lag the base
// relations; call RefreshView first for an up-to-date answer.
func (e *Engine) View(name string) (*relation.Counted, error) {
	s := e.currentSnapshot()
	sv, ok := s.views[name]
	if !ok {
		return nil, fmt.Errorf("db: unknown view %q", name)
	}
	if sv.reads != nil {
		sv.reads.Add(1) // feeds the adaptive when-policy's read rate
	}
	return sv.data, nil
}

// ViewStats returns a view's maintenance counters as of the current
// read snapshot — a consistent copy taken at publish time, so it
// cannot race with maintenance mutating the live counters.
func (e *Engine) ViewStats(name string) (ViewStats, error) {
	s := e.currentSnapshot()
	sv, ok := s.views[name]
	if !ok {
		return ViewStats{}, fmt.Errorf("db: unknown view %q", name)
	}
	return sv.away.addTo(sv.stats), nil
}

// TxResult summarizes one committed transaction.
type TxResult struct {
	Updates        []delta.Update // net effects applied to base relations
	ViewsRefreshed int            // immediate views brought up to date
	ViewsDeferred  int            // deferred views that queued changes
	// Trace is the trace id of the pipeline run that committed this
	// transaction (the group's trace under group commit), 0 when
	// tracing is off. Look it up in the flight recorder.
	Trace uint64
}

// Execute atomically applies a transaction: net effects are computed
// against the pre-state, immediate views are differentially refreshed
// as the last step of the commit, and deferred views accumulate the
// composed net change for a later refresh.
func (e *Engine) Execute(tx *delta.Tx) (TxResult, error) {
	return e.ExecuteLoggedCtx(context.Background(), tx, nil)
}

// ExecuteCtx is Execute with cancellation: the context is checked
// before the commit starts, and — under group commit — while the
// transaction waits in the scheduler queue. A transaction a leader
// has claimed always runs to its verdict; cancellation never tears a
// committed member back out of a batch.
func (e *Engine) ExecuteCtx(ctx context.Context, tx *delta.Tx) (TxResult, error) {
	return e.ExecuteLoggedCtx(ctx, tx, nil)
}

// ExecuteLoggedCtx is ExecuteCtx with a pre-encoded commit-log record
// that is made durable before the transaction is visible: appended with
// its whole group under one fsync when group commit is on, and on its
// own through the engine's log (SetCommitLog) otherwise. A failed
// append aborts the transaction with the engine untouched. The commit
// itself is not interruptible once started.
func (e *Engine) ExecuteLoggedCtx(ctx context.Context, tx *delta.Tx, payload []byte) (TxResult, error) {
	if err := ctx.Err(); err != nil {
		return TxResult{}, err
	}
	o := e.o.Load()
	var t0 time.Time
	var span obs.Span
	var root obs.SpanContext
	if o != nil {
		t0 = time.Now()
		if o.tr != nil {
			span, root = obs.StartRoot(o.tr, "db.commit")
		}
	}
	var res TxResult
	var ns []notification
	var err error
	grouped := false
	if g := e.group.Load(); g != nil {
		res, err, grouped = g.submitCtx(ctx, tx, payload) // notifications fired by the scheduler
	}
	if !grouped {
		res, ns, err = e.executeLocked(tx, payload, root)
	}
	if o != nil {
		if err == nil {
			o.commits.Inc()
			o.commitSeconds.ObserveDuration(time.Since(t0))
		}
		if span != nil {
			kvs := []obs.KV{
				{K: "updates", V: len(res.Updates)},
				{K: "views_refreshed", V: res.ViewsRefreshed},
				{K: "views_deferred", V: res.ViewsDeferred},
				{K: "err", V: err != nil},
			}
			if grouped && res.Trace != 0 {
				// The stage tree lives in the group's own trace; link it.
				kvs = append(kvs, obs.KV{K: "group_trace", V: res.Trace})
			}
			span.End(kvs...)
		}
	}
	if err != nil {
		return TxResult{}, err
	}
	fire(ns)
	return res, nil
}

// SetCommitLog attaches the write-ahead log a solo commit appends its
// record to before it becomes visible, as a group appends its batch
// through EnableGroupCommit's logBatch. Call it at open, before the
// first logged commit; nil detaches.
func (e *Engine) SetCommitLog(appendOne func(payload []byte) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logOne = nil
	if appendOne != nil {
		e.logOne = func(payloads [][]byte) error { return appendOne(payloads[0]) }
	}
}

// executeLocked commits one transaction through the batch pipeline
// (pipeline.go): the serial path is a group of one, so both paths share
// every phase — net effects, §6 composition (a no-op for one tx),
// classification, pooled maintenance, validation, log, install,
// publish. parent is the caller's db.commit span context; the
// pipeline's stage spans become its children.
func (e *Engine) executeLocked(tx *delta.Tx, payload []byte, parent obs.SpanContext) (TxResult, []notification, error) {
	req := &groupReq{tx: tx, payload: payload}
	ct := e.newCommitTrace(parent)
	ns, err := e.executeBatchLocked([]*groupReq{req}, nil, ct)
	ct.close(err)
	if err != nil {
		return TxResult{}, nil, err
	}
	if req.err != nil {
		return TxResult{}, nil, req.err
	}
	return req.res, ns, nil
}

func (st *viewState) noteDelta(d *diffeval.ViewDelta) {
	st.stats.Refreshes++
	st.stats.RowsEvaluated += d.Stats.RowsEvaluated
	st.stats.JoinSteps += d.Stats.JoinSteps
	st.stats.BaseRowsScanned += d.Stats.BaseRowsScanned
	st.stats.FilteredOut += d.Stats.FilteredOut
	st.stats.DeltaInserts += d.Stats.DeltaInserts
	st.stats.DeltaDeletes += d.Stats.DeltaDeletes
	if st.vo != nil {
		st.vo.rows.Add(int64(d.Stats.RowsEvaluated))
		st.vo.joinSteps.Add(int64(d.Stats.JoinSteps))
		st.vo.filterOut.Add(int64(d.Stats.FilteredOut))
		st.vo.filterPass.Add(int64(d.Stats.FilterChecked - d.Stats.FilteredOut))
	}
}

// chooseAdaptive resolves PolicyAdaptive for one refresh: differential
// while the combined delta is a small fraction of the view's base
// relations, full re-evaluation beyond the threshold — the paper's
// closing question ("under what circumstances differential
// re-evaluation is more efficient than complete re-evaluation")
// answered with a size-ratio cost model. Callers hold the engine lock.
func (e *Engine) chooseAdaptive(st *viewState, updates []delta.Update) Policy {
	deltaSize, baseSize := 0, 0
	counted := make(map[string]bool, len(st.bound.Operands))
	for _, op := range st.bound.Operands {
		// A self-join references the same relation through several
		// operands; the cost model counts each touched relation once —
		// per-occurrence summing would inflate the ratio and flip to
		// recompute below the threshold.
		if counted[op.Rel] {
			continue
		}
		counted[op.Rel] = true
		baseSize += e.base[op.Rel].Len()
		for _, u := range updates {
			if u.Rel == op.Rel {
				deltaSize += u.Size()
			}
		}
	}
	if baseSize == 0 || float64(deltaSize) > DefaultAdaptiveThreshold*float64(baseSize) {
		return PolicyRecompute
	}
	return PolicyDifferential
}

// viewTouched reports whether any operand's relation is in touched.
func (e *Engine) viewTouched(st *viewState, touched map[string]bool) bool {
	for _, op := range st.bound.Operands {
		if touched[op.Rel] {
			return true
		}
	}
	return false
}

// stagePending filters the transaction's updates down to those
// touching st's operands, WITHOUT composing them into st.pending: the
// caller folds the returned entries in (installPending) only once the
// whole commit is known to succeed, so a failed commit queues nothing.
// Callers hold the engine lock.
func (e *Engine) stagePending(st *viewState, updates []delta.Update) []delta.Update {
	var out []delta.Update
	for i, u := range updates {
		if reads(st, updates[i:i+1]) {
			out = append(out, u)
		}
	}
	return out
}

// installPending folds staged updates into the view's backlog in
// place: O(|updates|) per commit regardless of how much backlog has
// accumulated, where the old full Compose re-copied the whole backlog
// every time. Runs in commit phase 5 and cannot fail — first-touch
// relations are cloned (COW), and in-place composition only crosses
// same-relation updates. st.pending relations are exclusively owned
// under the engine lock (refresh paths hold it from build through
// install; snapshots copy only pendingSince), so mutating them here is
// safe. Callers hold the engine lock.
func (e *Engine) installPending(st *viewState, updates []delta.Update) {
	for _, u := range updates {
		prev, ok := st.pending[u.Rel]
		if !ok {
			st.pending[u.Rel] = u.Clone()
			continue
		}
		delta.ComposeInPlace(&prev, u)
		st.pending[u.Rel] = prev
	}
}

// RefreshView brings a deferred view up to date with a single
// differential pass over its composed backlog (or a full recompute
// under PolicyRecompute), clearing the backlog. Refreshing an immediate
// or already-fresh view is a no-op.
func (e *Engine) RefreshView(name string) error {
	e.mu.Lock()
	st, ok := e.views[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("db: unknown view %q", name)
	}
	ns, err := e.refreshLocked("db.refresh", []*viewState{st}, nil)
	e.mu.Unlock()
	if err != nil {
		return err
	}
	fire(ns)
	return nil
}

// RefreshAll refreshes every deferred view with pending changes in one
// run of the refresh pipeline, under a single lock acquisition: the
// views compute one after another and install in name order. The first
// error is returned after the remaining successful views have installed
// (a failed view keeps its backlog and can be retried).
func (e *Engine) RefreshAll() error {
	e.mu.Lock()
	sts := make([]*viewState, 0, len(e.views))
	for _, st := range e.views {
		sts = append(sts, st)
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i].name < sts[j].name })
	ns, err := e.refreshLocked("db.refresh_all", sts, nil)
	e.mu.Unlock()
	fire(ns)
	return err
}

// Relevant applies Theorem 4.1: it reports whether inserting or
// deleting tuple t in base relation rel could affect the named view in
// ANY database state. The per-operand checkers (including their O(n³)
// invariant-graph preparation) belong to the view's maintainer, which
// the read snapshot shares — so Relevant runs lock-free and never
// blocks a commit.
func (e *Engine) Relevant(view, rel string, t tuple.Tuple) (bool, error) {
	s := e.currentSnapshot()
	sv, ok := s.views[view]
	if !ok {
		return false, fmt.Errorf("db: unknown view %q", view)
	}
	found := false
	for i, op := range sv.bound.Operands {
		if op.Rel != rel {
			continue
		}
		found = true
		c, err := sv.maint.Checker(i)
		if err != nil {
			return false, err
		}
		relevant, err := c.Relevant(t)
		if err != nil {
			return false, err
		}
		if relevant {
			return true, nil
		}
	}
	if !found {
		return false, fmt.Errorf("db: view %q does not reference relation %q", view, rel)
	}
	return false, nil
}

// Explain describes how a view is defined and maintained: operands,
// condition, projection, refresh mode and policy, strategy, and the
// persistent indexes its equi-join columns can probe. It reads the
// current snapshot, so the reported tuple counts are one consistent
// cut.
func (e *Engine) Explain(name string) (string, error) {
	s := e.currentSnapshot()
	st, ok := s.views[name]
	if !ok {
		return "", fmt.Errorf("db: unknown view %q", name)
	}
	var sb strings.Builder
	b := st.bound
	fmt.Fprintf(&sb, "view %s\n", name)
	fmt.Fprintf(&sb, "  operands:\n")
	for _, op := range b.Operands {
		fmt.Fprintf(&sb, "    %s = %s%s  (%d tuples)\n", op.Alias, op.Rel, op.Scheme, s.base[op.Rel].Len())
	}
	fmt.Fprintf(&sb, "  where:   %s\n", b.Where)
	proj := make([]string, len(b.Project))
	for i, a := range b.Project {
		proj[i] = string(a)
	}
	fmt.Fprintf(&sb, "  select:  %s\n", strings.Join(proj, ", "))
	mode := "immediate (refreshed at commit)"
	if st.deferred {
		mode = "deferred (snapshot refresh, §6)"
	}
	fmt.Fprintf(&sb, "  refresh: %s\n", mode)
	var when string
	switch st.cfg.When.Kind {
	case RefreshOnDemand:
		when = "on demand (explicit refresh only)"
	case RefreshEvery:
		when = fmt.Sprintf("every %s (scheduler-driven)", st.cfg.When.Interval)
	case RefreshMaxStaleness:
		when = fmt.Sprintf("staleness SLO %s (scheduler refreshes before the bound)", st.cfg.When.Bound)
	case RefreshAdaptive:
		when = fmt.Sprintf("adaptive (currently %s; flips with the write/read balance)", mode)
	default:
		when = "on commit"
	}
	fmt.Fprintf(&sb, "  when:    %s\n", when)
	policy := "differential (§5, Algorithm 5.1)"
	switch st.cfg.Policy {
	case PolicyRecompute:
		policy = "complete re-evaluation"
	case PolicyAdaptive:
		policy = fmt.Sprintf("adaptive (differential while |δ| ≤ %.0f%% of base)", 100*DefaultAdaptiveThreshold)
	}
	fmt.Fprintf(&sb, "  policy:  %s\n", policy)
	fmt.Fprintf(&sb, "  filter:  §4 irrelevance pre-filter %s\n", onOff(st.cfg.Maint.Filter))
	m := st.cfg.Maint.FilterOptions.Method
	// Largest conjunct decides the detector under MethodAdaptive; +1
	// accounts for the distinguished '0' node of the constraint graph.
	nodes := 1
	for _, c := range b.Where.Conjuncts {
		if n := len(c.Vars()) + 1; n > nodes {
			nodes = n
		}
	}
	if r := m.Resolve(nodes); r != m {
		fmt.Fprintf(&sb, "  sat:     %s (%s at %d vars, threshold %d)\n", m, r, nodes-1, satgraph.AdaptiveSatThreshold)
	} else {
		fmt.Fprintf(&sb, "  sat:     %s negative-cycle detection\n", m)
	}
	var idx []string
	for _, op := range b.Operands {
		for pos := 0; pos < op.Scheme.Arity(); pos++ {
			if s.base[op.Rel].Index(pos) != nil {
				idx = append(idx, fmt.Sprintf("%s.%s", op.Rel, op.Scheme.Attr(pos)))
			}
		}
	}
	sort.Strings(idx)
	idx = dedupeSorted(idx)
	if len(idx) == 0 {
		fmt.Fprintf(&sb, "  indexes: none\n")
	} else {
		fmt.Fprintf(&sb, "  indexes: %s\n", strings.Join(idx, ", "))
	}
	return sb.String(), nil
}

func onOff(b bool) string {
	if b {
		return "ON"
	}
	return "OFF"
}

func dedupeSorted(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || in[i-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// Subscribe registers an alerter on a view (the Buneman–Clemons
// application of §1–2): after every commit or refresh that changes the
// view, the subscriber receives the net change as a sorted run of
// signed counts (Subscriber). It returns a subscription id for
// Unsubscribe.
func (e *Engine) Subscribe(view string, s Subscriber) (int, error) {
	if s == nil {
		return 0, fmt.Errorf("db: nil subscriber")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.views[view]
	if !ok {
		return 0, fmt.Errorf("db: unknown view %q", view)
	}
	if st.subscribers == nil {
		st.subscribers = make(map[int]Subscriber)
	}
	id := st.nextSubID
	st.nextSubID++
	st.subscribers[id] = s
	return id, nil
}

// Unsubscribe removes a subscription; unknown ids are a no-op.
func (e *Engine) Unsubscribe(view string, id int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.views[view]
	if !ok {
		return fmt.Errorf("db: unknown view %q", view)
	}
	delete(st.subscribers, id)
	return nil
}

// SetViewPolicy changes a view's refresh policy at runtime. Moving to
// an on-commit (or adaptive) policy drains any accumulated backlog
// under the same lock hold, so a commit can never observe an immediate
// view with stale contents. The change is engine state only — durable
// logging and replication are the caller's concern (mview.DB.SetPolicy).
func (e *Engine) SetViewPolicy(name string, spec RefreshSpec) error {
	e.mu.Lock()
	st, ok := e.views[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("db: unknown view %q", name)
	}
	// Leaving a deferring policy drains the backlog first; the policy
	// changes only if the drain installs, and publishes with it.
	var drain []*viewState
	if !spec.defers() {
		drain = []*viewState{st}
	}
	ns, err := e.refreshLocked("db.refresh", drain, func() {
		st.cfg.When = spec
		st.deferred = spec.defers()
		if st.vo != nil {
			st.vo.sloBound.Set(spec.Bound.Seconds())
		}
		st.snapDirty = true
	})
	if err != nil {
		e.mu.Unlock()
		return err
	}
	scheduled := spec.scheduled()
	e.mu.Unlock()
	if scheduled {
		e.sched.ensure()
	}
	e.sched.poke()
	fire(ns)
	return nil
}

// DisablePolicyRefresh turns off policy-driven scheduling on this
// engine. Followers use it: they replay the leader's policy DDL so the
// catalog matches, but never self-refresh — maintenance arrives
// composed from the replication stream.
func (e *Engine) DisablePolicyRefresh() { e.sched.disablePolicies() }

// StopScheduler terminates the refresh scheduler and waits for it; an
// engine being closed or replaced must stop its wheel or the goroutine
// leaks. Idempotent.
func (e *Engine) StopScheduler() { e.sched.stop() }

// Query evaluates an ad-hoc SPJ expression against the current read
// snapshot without materializing it. Binding and evaluation run
// lock-free over one consistent cut of the base relations, so a long
// query neither blocks nor is torn by concurrent commits. Its join
// steps probe the snapshot relations' own indexes where the query's
// equi-join columns have one.
func (e *Engine) Query(v expr.View) (*relation.Counted, error) {
	s := e.currentSnapshot()
	bound, err := expr.Bind(v, s.scheme)
	if err != nil {
		return nil, err
	}
	m, err := diffeval.NewMaintainer(bound, diffeval.Options{})
	if err != nil {
		return nil, err
	}
	c, _, err := m.Materialize(operandInstances(bound, nil, s.base), nil)
	return c, err
}
