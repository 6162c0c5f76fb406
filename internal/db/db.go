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
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// RefreshMode says when a view is brought up to date.
type RefreshMode uint8

const (
	// Immediate refreshes the view as part of every transaction commit
	// ("the differential update mechanism is invoked as the last
	// operation within the transaction", §5).
	Immediate RefreshMode = iota
	// Deferred accumulates net changes and refreshes only when
	// RefreshView is called — the snapshot regime of §6.
	Deferred
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
	// full re-evaluation once it grows past AdaptiveThreshold. This
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
// maintenance runs. It is the third axis next to RefreshMode (the
// commit-time mechanism the pipeline consults) and Policy (how a
// refresh computes) — every kind resolves to a Mode via RefreshSpec
// and, for the scheduled kinds, registers the view with the engine's
// refresh scheduler (scheduler.go).
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

// mode derives the commit-time refresh mode the pipeline consults.
// RefreshAdaptive starts Immediate (fresh until the workload proves
// write-heavy); the scheduler flips Mode at runtime without touching
// Kind.
func (s RefreshSpec) mode() RefreshMode {
	switch s.Kind {
	case RefreshOnCommit, RefreshAdaptive:
		return Immediate
	default:
		return Deferred
	}
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

// ViewConfig configures one materialized view.
type ViewConfig struct {
	Mode    RefreshMode
	Policy  Policy
	Maint   diffeval.Options // differential maintenance options
	EvalOpt eval.Options     // options for full (re-)evaluation
	// AdaptiveThreshold tunes PolicyAdaptive (0 means
	// DefaultAdaptiveThreshold).
	AdaptiveThreshold float64
	// When is the view's refresh policy — when maintenance runs, as
	// opposed to Policy's how. CreateView keeps Mode consistent with
	// it (normalizeWhen), so legacy callers that set Mode directly
	// keep working.
	When RefreshSpec
}

// normalizeWhen reconciles the legacy Mode field with the when-policy:
// a directly-set Deferred mode under the default on-commit spec means
// the caller used the old API, so it maps to on-demand; otherwise the
// spec is authoritative and Mode is derived from it.
func (c *ViewConfig) normalizeWhen() {
	if c.Mode == Deferred && c.When.Kind == RefreshOnCommit {
		c.When.Kind = RefreshOnDemand
	}
	c.Mode = c.When.mode()
}

// ViewStats accumulates maintenance counters for one view.
type ViewStats struct {
	Transactions  int // transactions whose updates reached this view
	Refreshes     int // differential refreshes performed
	Recomputes    int // full re-evaluations performed
	RowsEvaluated int // truth-table rows completed (differential)
	JoinSteps     int // join pipeline steps executed (differential)
	FilteredOut   int // update tuples discarded by the §4 filter
	DeltaInserts  int // view tuples inserted by deltas
	DeltaDeletes  int // view tuples deleted by deltas
	PendingTx     int // transactions awaiting a deferred refresh
	// Shard fan-out counters (shard.go). ShardTasks counts per-shard
	// maintenance tasks executed on the pool (0 when a refresh ran as
	// one unsharded task); ShardsPruned counts shard sub-deltas skipped
	// entirely by the §4 key-range test.
	ShardTasks   int
	ShardsPruned int
}

type viewState struct {
	name    string
	bound   *expr.Bound
	cfg     ViewConfig
	maint   *diffeval.Maintainer
	data    *relation.Counted
	pending map[string]delta.Update // composed net updates since last refresh
	stats   ViewStats
	vo      *viewObs // per-view metric handles; nil when obs is off
	// away counts the commits the relevance index kept wholly away from
	// the view; shared with every published snapshot (see routedAway).
	// routeSlot is 1 + the view's position among the current commit's
	// routing candidates, 0 outside routing (route.go).
	away      *routedAway
	routeSlot int
	// dataShared marks data as referenced by a published snapshot:
	// maintenance must clone it before the next in-place mutation
	// (copy-on-write). snapDirty marks any change — data, stats, or
	// backlog — since the last publish; a clean view's snapView is
	// carried into the next snapshot as a single pointer.
	dataShared bool
	snapDirty  bool
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
	// compares its growth against write traffic to flip Mode.
	reads *atomic.Int64
	// subscribers receive the view's deltas after each refresh — the
	// alerter mechanism of Buneman & Clemons that §1–2 cite as a
	// motivating application: the §4 filter suppresses wake-ups for
	// irrelevant updates, and the differential delta is exactly the
	// alert payload.
	subscribers map[int]Subscriber
	nextSubID   int
}

// Subscriber receives a view's change sets after a refresh touches the
// view. Inserts and deletes are owned by the subscriber. Callbacks run
// synchronously after the commit or refresh completes, with no engine
// lock held, so they may read the engine; they should not write to it.
type Subscriber func(view string, inserts, deletes *relation.Counted)

// notification is a queued subscriber callback, fired after the engine
// lock is released.
type notification struct {
	sub      Subscriber
	view     string
	ins, del *relation.Counted
}

func (st *viewState) notifications(view string, ins, del *relation.Counted) []notification {
	if len(st.subscribers) == 0 || (ins.Len() == 0 && del.Len() == 0) {
		return nil
	}
	ids := make([]int, 0, len(st.subscribers))
	for id := range st.subscribers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]notification, 0, len(ids))
	for _, id := range ids {
		out = append(out, notification{sub: st.subscribers[id], view: view, ins: ins, del: del})
	}
	if st.vo != nil {
		st.vo.notifications.Add(int64(len(out)))
	}
	return out
}

func fire(ns []notification) {
	for _, n := range ns {
		n.sub(n.view, n.ins, n.del)
	}
}

// countedDiff computes the insert and delete sets between two view
// states (used to notify subscribers when a refresh recomputed the
// view instead of producing a differential delta).
func countedDiff(old, new *relation.Counted) (ins, del *relation.Counted) {
	ins, del = relation.NewCounted(new.Scheme()), relation.NewCounted(old.Scheme())
	new.Each(func(t tuple.Tuple, n int64) {
		if diff := n - old.Count(t); diff > 0 {
			_ = ins.Add(t, diff)
		}
	})
	old.Each(func(t tuple.Tuple, n int64) {
		if diff := n - new.Count(t); diff > 0 {
			_ = del.Add(t, diff)
		}
	})
	return ins, del
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
	// indexes holds persistent single-column hash indexes over base
	// relations, created on the equi-join columns of each view and
	// maintained incrementally at commit. Differential maintenance
	// probes them so per-transaction work scales with the delta.
	indexes map[string]map[int]*relation.Index
	// o carries the attached observability sinks (SetObs). Atomic so
	// the commit hot path can check it without taking the engine lock;
	// nil means instrumentation is off and costs one pointer load.
	o atomic.Pointer[engineObs]
	// snap is the published read snapshot (never nil after New);
	// baseShared marks base relations referenced by it, which phase 2
	// must clone before applying updates in place. Guarded by mu for
	// writes; snap is loaded lock-free by every read path.
	snap       atomic.Pointer[Snapshot]
	baseShared map[string]bool
	// maintWorkers bounds the worker pool that runs per-view
	// maintenance concurrently (phase-1 delta computation and
	// recompute staging at commit, deferred refreshes in RefreshAll).
	// 0 means GOMAXPROCS. Guarded by mu.
	maintWorkers int
	// group is the group-commit scheduler (group.go); nil means every
	// Execute commits solo. Atomic so the Execute hot path routes
	// without taking the engine lock.
	group atomic.Pointer[group]
	// shards is the hash-shard count applied to every base relation at
	// creation (shard.go). Engine configuration, immutable after New;
	// <= 1 means monolithic relations.
	shards int
	// ckptDirty tracks, per base relation, which shards changed since
	// the last checkpoint interval started (checkpoint.go). Guarded by
	// mu; commits mark exactly the shards their net delta touched.
	ckptDirty map[string][]bool
	// crit accumulates per-stage commit time for critical-path
	// attribution (trace.go). Lock-free: written by commitTrace.close,
	// read by CriticalPath.
	crit critAccum
	// sched drives the scheduled when-policies — Every intervals,
	// MaxStaleness SLO deadlines, adaptive mode flips, and every
	// RefreshPeriodically registration — off one timer wheel
	// (scheduler.go). Created at New, its goroutine starts lazily.
	sched *scheduler
	// routes holds the per-relation relevance indexes over the filtered
	// views (route.go): nil after view DDL, rebuilt by the next commit.
	// routeCands is that path's per-commit scratch. Guarded by mu.
	routes     map[string]*relRoute
	routeCands []routeCand
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
	// workers gauges the maintenance worker-pool size; speedup records
	// serialized-over-wall compute time whenever a commit fans two or
	// more view computations out to the pool (1 = no overlap, k = the
	// pool kept k computations in flight).
	workers *obs.Gauge
	speedup *obs.Histogram
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
	// shards gauges the configured hash-shard count of base relations.
	shards *obs.Gauge
	// stages are the mview_commit_stage_seconds{stage} histograms,
	// indexed by the stage constants in trace.go. Every batch observes
	// every stage (0 when a stage had no work), so per-stage sums give
	// the workload's critical-path attribution.
	stages [numStages]*obs.Histogram
}

// groupSizeBuckets spans the useful batch sizes (DefaultGroupMaxBatch
// is 64; obs.DefBuckets are latency buckets at the wrong scale).
var groupSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// speedupBuckets spans the useful range of the parallel-speedup ratio
// (obs.DefBuckets are latency buckets and stop at the wrong scale).
var speedupBuckets = []float64{0.5, 0.75, 1, 1.5, 2, 3, 4, 6, 8, 12, 16}

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
	computeWait   *obs.Histogram
	shardTasks    *obs.Counter
	shardPruned   *obs.Counter
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
		computeWait: reg.Histogram("mview_view_compute_wait_seconds",
			"Queue wait before a view's phase-1 delta computation starts on the maintenance worker pool.", nil, l),
		shardTasks: reg.Counter("mview_shard_tasks_total",
			"Per-shard maintenance tasks executed for this view on the worker pool.", l),
		shardPruned: reg.Counter("mview_shard_pruned_total",
			"Shard sub-deltas skipped entirely by the §4 key-range irrelevance test.", l),
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
		workers: reg.Gauge("mview_maint_workers",
			"Size of the per-view maintenance worker pool.", nil),
		speedup: reg.Histogram("mview_commit_parallel_speedup",
			"Serialized-over-wall compute time of parallel phase-1 view maintenance (1 = no overlap).",
			speedupBuckets, nil),
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
		shards: reg.Gauge("mview_shards",
			"Configured hash-shard count of base relations (1 = unsharded).", nil),
	}
	for i := 0; i < numStages; i++ {
		o.stages[i] = reg.Histogram("mview_commit_stage_seconds",
			"Commit pipeline stage latency (trace.go stage taxonomy). Every batch observes every stage, 0 when the stage had no work.",
			nil, obs.Labels{"stage": stageNames[i]})
	}
	o.workers.Set(float64(e.poolSize()))
	o.shards.Set(float64(e.Shards()))
	e.o.Store(o)
	for _, name := range e.viewOrder {
		st := e.views[name]
		st.vo = newViewObs(reg, name)
		st.vo.sloBound.Set(st.cfg.When.Bound.Seconds())
		st.maint.Tracer = tr
	}
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithMaintWorkers bounds the maintenance worker pool at construction;
// see SetMaintWorkers for the semantics.
func WithMaintWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.maintWorkers = n
		}
	}
}

// New returns an empty engine.
func New(opts ...Option) *Engine {
	db, err := schema.NewDatabase()
	if err != nil {
		panic(err) // unreachable: empty database scheme is valid
	}
	e := &Engine{
		scheme:     db,
		base:       make(map[string]*relation.Relation),
		views:      make(map[string]*viewState),
		indexes:    make(map[string]map[int]*relation.Index),
		baseShared: make(map[string]bool),
		ckptDirty:  make(map[string][]bool),
		now:        time.Now,
	}
	e.sched = newScheduler(e)
	for _, opt := range opts {
		opt(e)
	}
	e.publishLocked() // the engine is born with an empty snapshot
	return e
}

// SetMaintWorkers bounds the worker pool that parallelizes per-view
// maintenance: phase-1 delta computation and recompute staging inside
// Execute, and deferred refreshes in RefreshAll. Each view's delta
// depends only on the frozen pre-state and the transaction's net
// updates, so independent views compute concurrently while the commit
// lock holder waits on the pool. n <= 0 restores the default,
// GOMAXPROCS. Values above GOMAXPROCS are honored as given: they
// cannot speed up CPU-bound maintenance but let blocking per-view work
// (tracing sinks, future IO) overlap.
func (e *Engine) SetMaintWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n < 0 {
		n = 0
	}
	e.maintWorkers = n
	if o := e.o.Load(); o != nil {
		o.workers.Set(float64(e.poolSize()))
	}
}

// MaintWorkers reports the effective maintenance worker-pool size.
func (e *Engine) MaintWorkers() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.poolSize()
}

// poolSize resolves the configured pool size. Callers hold the engine
// lock.
func (e *Engine) poolSize() int {
	if e.maintWorkers > 0 {
		return e.maintWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachParallel runs fn(i) for every i in [0, n) on the maintenance
// worker pool, returning when all calls have finished. With a single
// worker or a single job it runs inline on the caller's goroutine.
// Callers hold the engine lock for the whole call; fn must only read
// engine state (the Maintainer concurrency contract) and write to its
// own per-index result slot.
func (e *Engine) forEachParallel(n int, fn func(int)) {
	w := e.poolSize()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// provider adapts the engine's index map to diffeval.IndexProvider.
// Methods are called with the engine lock already held.
type provider struct{ e *Engine }

// Index returns the persistent index of rel on base column pos.
func (p provider) Index(rel string, pos int) *relation.Index {
	return p.e.indexes[rel][pos]
}

// ensureIndexes creates any missing indexes on the equi-join columns
// of the bound view's condition. Callers hold the engine lock.
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
		if e.indexes[op.Rel] == nil {
			e.indexes[op.Rel] = make(map[int]*relation.Index)
		}
		if e.indexes[op.Rel][pos] != nil {
			return nil
		}
		ix, err := relation.BuildIndex(e.base[op.Rel], pos)
		if err != nil {
			return err
		}
		e.indexes[op.Rel][pos] = ix
		return nil
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

// applyToIndexes folds one base update into the relation's indexes.
// Callers hold the engine lock.
func (e *Engine) applyToIndexes(u delta.Update) {
	for _, ix := range e.indexes[u.Rel] {
		if u.Deletes != nil {
			u.Deletes.Each(ix.Remove)
		}
		if u.Inserts != nil {
			// Tuples handed out by Each are arena rows, immutable once
			// stored, so the index may retain them directly.
			u.Inserts.Each(ix.Add)
		}
	}
}

// CreateRelation adds a base relation with the given attributes.
func (e *Engine) CreateRelation(name string, attrs ...schema.Attribute) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.views[name]; dup {
		return fmt.Errorf("db: name %q already names a view", name)
	}
	s, err := schema.NewScheme(attrs...)
	if err != nil {
		return err
	}
	rs := &schema.RelScheme{Name: name, Scheme: s}
	// Copy-on-write: published snapshots reference e.scheme, so DDL
	// swaps in an extended clone instead of mutating it.
	next := e.scheme.Clone()
	if err := next.Add(rs); err != nil {
		return err
	}
	e.scheme = next
	if e.shards > 1 && s.Arity() > 0 {
		r, err := relation.NewSharded(s, 0, e.shards)
		if err != nil {
			return err
		}
		e.base[name] = r
	} else {
		e.base[name] = relation.New(s)
	}
	e.initCheckpointDirtyLocked(name)
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
	cfg.normalizeWhen()
	maint, err := diffeval.NewMaintainer(bound, cfg.Maint)
	if err != nil {
		return err
	}
	if err := e.ensureIndexes(bound); err != nil {
		return err
	}
	data, err := eval.Materialize(bound, e.operandInstances(bound), cfg.EvalOpt)
	if err != nil {
		return err
	}
	st := &viewState{
		name:    v.Name,
		bound:   bound,
		cfg:     cfg,
		maint:   maint,
		data:    data,
		pending: make(map[string]delta.Update),
		away:    new(routedAway),
		reads:   new(atomic.Int64),
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

// operandInstances gathers the live base instances for a bound view.
// Callers hold the engine lock.
func (e *Engine) operandInstances(b *expr.Bound) []*relation.Relation {
	insts := make([]*relation.Relation, len(b.Operands))
	for i, op := range b.Operands {
		insts[i] = e.base[op.Rel]
	}
	return insts
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
	return e.ExecuteLogged(tx, nil)
}

// ExecuteCtx is Execute with cancellation: the context is checked
// before the commit starts, and — under group commit — while the
// transaction waits in the scheduler queue. A transaction a leader
// has claimed always runs to its verdict; cancellation never tears a
// committed member back out of a batch.
func (e *Engine) ExecuteCtx(ctx context.Context, tx *delta.Tx) (TxResult, error) {
	return e.ExecuteLoggedCtx(ctx, tx, nil)
}

// ExecuteLogged is Execute with a pre-encoded commit-log record that
// must become durable before the transaction is visible. With group
// commit enabled the transaction rides a group — its record is
// appended with the whole batch under one fsync; otherwise (or while
// the scheduler is shutting down) it commits solo and the payload is
// ignored: the serial durable path logs after applying, under the
// caller's statement lock, exactly as before.
func (e *Engine) ExecuteLogged(tx *delta.Tx, payload []byte) (TxResult, error) {
	return e.ExecuteLoggedCtx(context.Background(), tx, payload)
}

// ExecuteLoggedCtx is ExecuteLogged with cancellation (see
// ExecuteCtx). The commit itself is not interruptible once started.
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
		if payload != nil {
			// Unreachable when the caller serializes ExecuteLogged
			// against DisableGroupCommit (the durable layer's gmu):
			// refuse rather than commit without durably logging.
			err = fmt.Errorf("db: group commit stopped mid-transaction")
		} else {
			res, ns, err = e.executeLocked(tx, root)
		}
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

// executeLocked commits one transaction through the batch pipeline
// (group.go): the serial path is a group of one, so both paths share
// every phase — net effects, §6 composition (a no-op for one tx),
// classification, pooled maintenance, validation, install, publish.
// parent is the caller's db.commit span context; the pipeline's stage
// spans become its children.
func (e *Engine) executeLocked(tx *delta.Tx, parent obs.SpanContext) (TxResult, []notification, error) {
	req := &groupReq{tx: tx}
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

// refreshed carries one touched view through the commit pipeline:
// phase 1 fills d (differential) on the worker pool, phase 3a fills vc
// (recompute shadow) and validates, phase 3b installs — including the
// staged deferred backlogs, so a failed commit queues nothing.
type refreshed struct {
	st         *viewState
	deferred   bool                 // backlog staging only; no computation
	pend       []delta.Update       // staged updates, composed into the backlog at install
	insts      []*relation.Relation // operand instances for the computation
	perOp      []delta.Update       // differential input: each operand's net update
	routed     bool                 // perOp came filtered out of the relevance index (route.go)
	d          *diffeval.ViewDelta  // differential result
	vc         *relation.Counted    // recompute shadow (PolicyRecompute)
	cow        *relation.Counted    // phase-1 clone for the copy-on-write install
	err        error                // compute/validate failure
	decision   string               // metrics label
	computeDur time.Duration        // delta or recompute computation time
	wait       time.Duration        // queue wait before compute started
	// Group-commit fields (group.go). touchCount is how many of the
	// group's transactions touch this view — the serial-equivalent
	// increment for Transactions/PendingTx. noop marks a view whose
	// composed delta cancelled to nothing; perTx marks a subscribed
	// view whose state installs from folded per-transaction deltas.
	touchCount int
	noop       bool
	perTx      bool
	// Shard fan-out fields (shard.go): per-shard partial deltas merged
	// into d after the pool drains, plus the fan-out counters.
	parts        []*diffeval.ViewDelta
	shardTasks   int
	shardsPruned int
}

// invertUpdate returns the net update that undoes u: the tuples u
// inserted are deleted and vice versa. Because net effects are
// disjoint from the pre-state (delta.Tx.Net), applying the inverse
// right after a successful forward apply restores the relation
// exactly.
func invertUpdate(u delta.Update) delta.Update {
	return delta.Update{Rel: u.Rel, Inserts: u.Deletes, Deletes: u.Inserts}
}

func (st *viewState) noteDelta(d *diffeval.ViewDelta) {
	st.stats.Refreshes++
	st.stats.RowsEvaluated += d.Stats.RowsEvaluated
	st.stats.JoinSteps += d.Stats.JoinSteps
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
	threshold := st.cfg.AdaptiveThreshold
	if threshold <= 0 {
		threshold = DefaultAdaptiveThreshold
	}
	deltaSize, baseSize := 0, 0
	counted := make(map[string]bool, len(st.bound.Operands))
	for _, op := range st.bound.Operands {
		// A self-join references the same relation through several
		// operands; the cost model counts each touched relation once —
		// per-occurrence summing would inflate the ratio and flip to
		// recompute below the configured threshold.
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
	if baseSize == 0 || float64(deltaSize) > threshold*float64(baseSize) {
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
	for _, u := range updates {
		if e.relUsedBy(st, u.Rel) {
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
			st.pending[u.Rel] = cloneUpdate(u)
			continue
		}
		delta.ComposeInPlace(&prev, u)
		st.pending[u.Rel] = prev
	}
}

func (e *Engine) relUsedBy(st *viewState, rel string) bool {
	for _, op := range st.bound.Operands {
		if op.Rel == rel {
			return true
		}
	}
	return false
}

func cloneUpdate(u delta.Update) delta.Update {
	out := delta.Update{Rel: u.Rel}
	if u.Inserts != nil {
		out.Inserts = u.Inserts.Clone()
	}
	if u.Deletes != nil {
		out.Deletes = u.Deletes.Clone()
	}
	return out
}

// RefreshView brings a deferred view up to date with a single
// differential pass over the composed pending updates (or a full
// recompute under PolicyRecompute), clearing the backlog. Refreshing
// an immediate or already-fresh view is a no-op.
func (e *Engine) RefreshView(name string) error {
	var span obs.Span
	var root obs.SpanContext
	if o := e.o.Load(); o != nil && o.tr != nil {
		span, root = obs.StartRoot(o.tr, "db.refresh", obs.KV{K: "view", V: name})
	}
	ns, err := e.refreshLocked(name, root)
	if span != nil {
		span.End(obs.KV{K: "err", V: err != nil})
	}
	if err != nil {
		return err
	}
	fire(ns)
	return nil
}

func (e *Engine) refreshLocked(name string, parent obs.SpanContext) ([]notification, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.views[name]
	if !ok {
		return nil, fmt.Errorf("db: unknown view %q", name)
	}
	j, err := e.buildRefreshJob(st)
	if err != nil || j == nil {
		return nil, err
	}
	if o := e.o.Load(); o != nil && o.tr != nil {
		j.tr, j.parent = o.tr, parent
	}
	j.run()
	var sp obs.Span
	if j.tr != nil {
		sp, _ = obs.StartChild(j.tr, parent, "refresh.install", obs.KV{K: "view", V: name})
	}
	ns, err := e.installRefreshJob(j)
	if err != nil {
		if sp != nil {
			sp.End(obs.KV{K: "err", V: true})
		}
		return nil, err
	}
	e.publishLocked()
	if sp != nil {
		sp.End()
	}
	return ns, nil
}

// refreshJob carries one deferred view's refresh through the
// build/compute/install steps shared by RefreshView and RefreshAll.
type refreshJob struct {
	st      *viewState
	policy  Policy               // resolved policy (adaptive already decided)
	insts   []*relation.Relation // operand instances; reconstructed pre-state for differential
	updates []delta.Update       // composed pending net updates (differential)
	t0      time.Time            // refresh start, for latency metrics and lastMaint
	d       *diffeval.ViewDelta
	vc      *relation.Counted
	cow     *relation.Counted // private clone for the copy-on-write install
	err     error
	// tr/parent attach the job to a db.refresh (or db.refresh_all)
	// trace: run emits a refresh.compute child span. computeDur is the
	// pure compute time, for lastMaint.
	tr         obs.Tracer
	parent     obs.SpanContext
	computeDur time.Duration
}

// buildRefreshJob resolves the refresh policy and reconstructs the
// pre-refresh operand state (B0 = B_now − I ∪ D) for one deferred
// view. It returns (nil, nil) when the view has no pending updates.
// Callers hold the engine lock.
func (e *Engine) buildRefreshJob(st *viewState) (*refreshJob, error) {
	if len(st.pending) == 0 {
		return nil, nil
	}
	j := &refreshJob{st: st, t0: time.Now()}
	policy := st.cfg.Policy
	if policy == PolicyAdaptive {
		pend := make([]delta.Update, 0, len(st.pending))
		for _, u := range st.pending {
			pend = append(pend, u)
		}
		policy = e.chooseAdaptive(st, pend)
	}
	j.policy = policy
	if policy == PolicyRecompute {
		j.insts = e.operandInstances(st.bound)
		return j, nil
	}
	// Reconstruct the pre-refresh state of each touched operand.
	insts := make([]*relation.Relation, len(st.bound.Operands))
	var updates []delta.Update
	seen := make(map[string]bool)
	for i, op := range st.bound.Operands {
		u, touched := st.pending[op.Rel]
		if !touched {
			insts[i] = e.base[op.Rel]
			continue
		}
		pre := e.base[op.Rel].Clone()
		if u.Inserts != nil {
			u.Inserts.Each(func(t tuple.Tuple) { pre.Delete(t) })
		}
		if u.Deletes != nil {
			var insErr error
			u.Deletes.Each(func(t tuple.Tuple) {
				if err := pre.Insert(t); err != nil && insErr == nil {
					insErr = err
				}
			})
			if insErr != nil {
				return nil, insErr
			}
		}
		insts[i] = pre
		if !seen[op.Rel] {
			seen[op.Rel] = true
			updates = append(updates, u)
		}
	}
	j.insts, j.updates = insts, updates
	return j, nil
}

// run computes the refresh result. It only reads engine state (the
// reconstructed instances are private clones), so jobs for distinct
// views may run concurrently on the worker pool while the lock holder
// waits — the engine must not be mutated during the call.
func (j *refreshJob) run() {
	var sp obs.Span
	if j.tr != nil {
		sp, _ = obs.StartChild(j.tr, j.parent, "refresh.compute",
			obs.KV{K: "view", V: j.st.name})
	}
	start := time.Now()
	defer func() {
		j.computeDur = time.Since(start)
		if sp != nil {
			sp.End(obs.KV{K: "err", V: j.err != nil})
		}
	}()
	if j.policy == PolicyRecompute {
		j.vc, j.err = eval.Materialize(j.st.bound, j.insts, j.st.cfg.EvalOpt)
		return
	}
	// No index provider here: the persistent indexes reflect the
	// CURRENT base state, while this delta is computed against the
	// reconstructed pre-refresh state.
	j.d, j.err = j.st.maint.ComputeDelta(j.insts, j.updates)
	if j.err == nil && j.st.dataShared {
		// Pre-clone for the copy-on-write install while still on the
		// worker pool (reads frozen view state, writes only this job).
		j.cow = j.st.data.Clone()
	}
}

// installRefreshJob folds a computed refresh into the view and clears
// its backlog; on error the view and its backlog are untouched
// (diffeval.Apply validates before mutating). Callers hold the engine
// lock.
func (e *Engine) installRefreshJob(j *refreshJob) ([]notification, error) {
	st := j.st
	if j.err != nil {
		return nil, j.err
	}
	install := time.Now()
	if j.policy == PolicyRecompute {
		var ns []notification
		if len(st.subscribers) > 0 {
			ins, del := countedDiff(st.data, j.vc)
			ns = st.notifications(st.name, ins, del)
		}
		st.data = j.vc // fresh shadow state, not yet in any snapshot
		st.dataShared = false
		st.snapDirty = true
		st.stats.Recomputes++
		st.pending = make(map[string]delta.Update)
		st.stats.PendingTx = 0
		st.pendingSince = time.Time{}
		st.lastMaint = maintRecord{
			At:       time.Now(),
			Decision: decisionLabel(st.cfg, PolicyRecompute),
			Compute:  j.computeDur,
			Install:  time.Since(install),
			Trace:    j.parent.Trace,
		}
		if st.vo != nil {
			st.vo.pending.Set(0)
			st.vo.staleness.Set(0)
			st.vo.refreshHist(decisionLabel(st.cfg, PolicyRecompute)).ObserveDuration(time.Since(j.t0))
		}
		return ns, nil
	}
	if st.dataShared {
		// Copy-on-write: fold the delta into a private clone (usually
		// pre-built by run on the worker pool) so the published
		// snapshot's view state stays frozen. Apply validates before
		// mutating, so a failure leaves the clone equal to the original
		// and the backlog intact.
		if j.cow == nil {
			j.cow = st.data.Clone()
		}
		st.data = j.cow
		st.dataShared = false
	}
	if err := diffeval.Apply(st.data, j.d); err != nil {
		return nil, err
	}
	st.snapDirty = true
	st.noteDelta(j.d)
	st.pending = make(map[string]delta.Update)
	st.stats.PendingTx = 0
	st.pendingSince = time.Time{}
	st.lastMaint = maintRecord{
		At:       time.Now(),
		Decision: decisionLabel(st.cfg, PolicyDifferential),
		Compute:  j.computeDur,
		Install:  time.Since(install),
		Inserts:  j.d.Stats.DeltaInserts,
		Deletes:  j.d.Stats.DeltaDeletes,
		Trace:    j.parent.Trace,
	}
	if st.vo != nil {
		st.vo.pending.Set(0)
		st.vo.staleness.Set(0)
		st.vo.refreshHist(decisionLabel(st.cfg, PolicyDifferential)).ObserveDuration(time.Since(j.t0))
	}
	return st.notifications(st.name, j.d.Inserts, j.d.Deletes), nil
}

// RefreshAll refreshes every deferred view with pending changes under
// a single lock acquisition, fanning the per-view computations out to
// the maintenance worker pool: each job reconstructs its own
// pre-refresh operand state and only reads the engine, so independent
// views refresh concurrently. Results install in name order; the
// first error is returned after the remaining successful views have
// installed (a failed view keeps its backlog and can be retried).
func (e *Engine) RefreshAll() error {
	var span obs.Span
	var root obs.SpanContext
	if o := e.o.Load(); o != nil && o.tr != nil {
		span, root = obs.StartRoot(o.tr, "db.refresh_all")
	}
	ns, err := e.refreshAllLocked(root)
	if span != nil {
		span.End(obs.KV{K: "err", V: err != nil})
	}
	fire(ns)
	return err
}

func (e *Engine) refreshAllLocked(parent obs.SpanContext) ([]notification, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, len(e.viewOrder))
	copy(names, e.viewOrder)
	sort.Strings(names)
	var jobs []*refreshJob
	for _, name := range names {
		j, err := e.buildRefreshJob(e.views[name])
		if err != nil {
			return nil, err
		}
		if j != nil {
			jobs = append(jobs, j)
		}
	}
	if o := e.o.Load(); o != nil && o.tr != nil {
		for _, j := range jobs {
			j.tr, j.parent = o.tr, parent
		}
	}
	e.forEachParallel(len(jobs), func(i int) { jobs[i].run() })
	var ns []notification
	var firstErr error
	for _, j := range jobs {
		n, err := e.installRefreshJob(j)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ns = append(ns, n...)
	}
	if len(jobs) > 0 {
		e.publishLocked()
	}
	return ns, firstErr
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
	if st.cfg.Mode == Deferred {
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
		threshold := st.cfg.AdaptiveThreshold
		if threshold <= 0 {
			threshold = DefaultAdaptiveThreshold
		}
		policy = fmt.Sprintf("adaptive (differential while |δ| ≤ %.0f%% of base)", 100*threshold)
	}
	fmt.Fprintf(&sb, "  policy:  %s\n", policy)
	strategy := "auto (indexed delta joins when indexes exist, else prefix-sharing rows)"
	switch st.cfg.Maint.Strategy {
	case diffeval.StrategyPrefixShare:
		strategy = "prefix-sharing truth-table rows"
	case diffeval.StrategyRowByRow:
		strategy = "row-by-row (no prefix sharing)"
	case diffeval.StrategyRowByRowGreedy:
		strategy = "row-by-row with greedy join order"
	case diffeval.StrategyIndexedDelta:
		strategy = "indexed delta joins"
	}
	fmt.Fprintf(&sb, "  rows:    %s\n", strategy)
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
			if s.indexed[op.Rel][pos] {
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
	if s.shards > 1 {
		fmt.Fprintf(&sb, "  shards:  %d hash shards per base relation (key: first attribute; single-operand deltas fan out per shard with §4 range pruning)\n", s.shards)
	} else {
		fmt.Fprintf(&sb, "  shards:  1 (monolithic base relations)\n")
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
// view, the subscriber receives the insert and delete sets. It returns
// a subscription id for Unsubscribe.
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

// RefreshPeriodically refreshes a deferred view on a fixed interval
// until the returned stop function is called — §6's "materialized
// views are updated periodically" regime. Refresh errors are reported
// through the optional onErr callback and do NOT terminate the loop:
// a transient failure (the view dropped and re-created, a delta that
// does not fold) must not silently end periodic refresh forever. Only
// stop() ends the schedule.
//
// Deprecated: prefer the RefreshEvery when-policy (SetViewPolicy or a
// RefreshSpec at CreateView), which expresses the schedule as durable
// catalog state instead of a caller-held goroutine handle. This method
// remains supported; registrations now ride the engine's single
// scheduler wheel instead of one ticker goroutine per caller.
func (e *Engine) RefreshPeriodically(name string, interval time.Duration, onErr func(error)) (stop func(), err error) {
	e.mu.RLock()
	_, ok := e.views[name]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("db: unknown view %q", name)
	}
	if interval <= 0 {
		return nil, fmt.Errorf("db: non-positive refresh interval %v", interval)
	}
	return e.sched.addPeriodic(name, interval, onErr), nil
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
	var ns []notification
	if spec.mode() == Immediate && len(st.pending) > 0 {
		j, err := e.buildRefreshJob(st)
		if err != nil {
			e.mu.Unlock()
			return err
		}
		if j != nil {
			if o := e.o.Load(); o != nil && o.tr != nil {
				j.tr = o.tr
			}
			j.run()
			if ns, err = e.installRefreshJob(j); err != nil {
				e.mu.Unlock()
				return err
			}
		}
	}
	st.cfg.When = spec
	st.cfg.Mode = spec.mode()
	if st.vo != nil {
		st.vo.sloBound.Set(spec.Bound.Seconds())
	}
	st.snapDirty = true
	e.publishLocked()
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
// composed from the replication stream. RefreshPeriodically
// registrations still fire (a local, caller-owned contract).
func (e *Engine) DisablePolicyRefresh() { e.sched.disablePolicies() }

// StopScheduler terminates the refresh scheduler and waits for it; an
// engine being closed or replaced must stop its wheel or the goroutine
// leaks. Idempotent.
func (e *Engine) StopScheduler() { e.sched.stop() }

// Query evaluates an ad-hoc SPJ expression against the current read
// snapshot without materializing it. Binding and evaluation run
// lock-free over one consistent cut of the base relations, so a long
// query neither blocks nor is torn by concurrent commits.
func (e *Engine) Query(v expr.View, opts eval.Options) (*relation.Counted, error) {
	s := e.currentSnapshot()
	bound, err := expr.Bind(v, s.scheme)
	if err != nil {
		return nil, err
	}
	return eval.Materialize(bound, s.operandInstances(bound), opts)
}
