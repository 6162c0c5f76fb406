package db

// The maintenance pipeline. A commit and a deferred view's refresh are
// one mechanism: each carries the views it brings up to date, as
// []*refreshed, through the same stages, named after their spans:
//
//	maint     route the filtered views' updates through the relevance
//	          index (§4, once per tuple; route.go), then compute every
//	          differential delta (§5) and recompute shadow, one view
//	          after another on the goroutine holding the engine lock
//	validate  check every delta against its view; nothing is visible yet
//	install   swap the views' next states in; nothing here can fail
//	publish   one copy-on-write snapshot
//
// A commit (executeBatchLocked) derives its views from its group's
// composed net effect, after stages net and compose, and logs the group
// (fsync) between validate and install. A refresh (refreshLocked)
// derives them from each view's backlog — the §6 composed net change
// since its last refresh — and computes against the pre-refresh state
// rebuilt from that backlog.
//
// Every computation is diffeval's one evaluator, and each probes the
// persistent indexes of the very instances it reads: base relations
// carry their indexes in their own copy-on-write storage, so the
// pre-commit base a commit's deltas read, the clones a group's
// per-transaction deltas and a recompute's post-state read, and the
// pre-refresh state a refresh rebuilds from its backlog all come with
// indexes that describe their rows.

import (
	"fmt"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/relation"
	"mview/internal/tuple"
)

// refreshed carries one view through the pipeline: the maint stage fills
// d (differential) or vc (recompute shadow), validate checks d, and
// install folds it in — including a commit's staged deferred backlogs,
// so a failed commit queues nothing.
type refreshed struct {
	st         *viewState
	task       maintTask            // what the maint stage computes
	deferred   bool                 // backlog staging only; no computation
	pend       []delta.Update       // staged updates, composed into the backlog at install
	insts      []*relation.Relation // operand instances for the computation
	perOp      []delta.Update       // differential input: each operand's net update
	routed     bool                 // perOp came filtered out of the relevance index (route.go)
	d          *diffeval.ViewDelta  // differential result
	vc         *relation.Counted    // recompute shadow (PolicyRecompute): the view's next state
	vcScanned  int                  // base rows the recompute read
	cow        *relation.Counted    // per-tx fold's private clone, installed as the view's next state
	err        error                // compute/validate failure
	decision   string               // metrics label
	computeDur time.Duration        // delta or recompute computation time
	wait       time.Duration        // from the maint stage's start to this view's task
	// refresh marks a deferred view's refresh: computed against the state
	// rebuilt from its backlog; install clears the backlog.
	refresh bool
	// Group-commit fields (group.go). touchCount is how many of the
	// group's transactions touch this view — the serial-equivalent
	// increment for Transactions/PendingTx. noop marks a view whose
	// composed delta cancelled to nothing; perTx marks a subscribed
	// view whose state installs from folded per-transaction deltas.
	touchCount int
	noop       bool
	perTx      bool
}

// maintTask is the computation the maint stage runs for one view.
type maintTask uint8

const (
	noTask        maintTask = iota
	deltaTask               // differential delta over perOp
	recomputeTask           // recompute shadow of the post-state
)

// maintRun is one pass of the pipeline: the views a commit touched, or
// the deferred views a refresh drains.
type maintRun struct {
	ct      *commitTrace
	refresh bool
	ws      []*refreshed // install (view) order; a routing candidate's slot stays nil until a tuple reaches it
	cands   []routeCand  // filtered differential views, routed by the maint stage
	// A commit's composed delta and its members; both nil for a
	// refresh, whose views each route their own backlog (routeCand.in).
	composed []delta.Update
	live     []*groupReq
	// work holds post-state clones of the relations a commit writes,
	// for the computations that read them (postState); nil otherwise.
	work      map[string]*relation.Relation
	wentStale bool // install started a deferred view's backlog
}

// operandInstances gathers a bound view's operand instances: each
// relation from over (a commit's overlay; nil for none), else from base.
func operandInstances(b *expr.Bound, over, base map[string]*relation.Relation) []*relation.Relation {
	insts := make([]*relation.Relation, len(b.Operands))
	for i, op := range b.Operands {
		if r, ok := over[op.Rel]; ok {
			insts[i] = r
		} else {
			insts[i] = base[op.Rel]
		}
	}
	return insts
}

// updateOf returns rel's update among us (zero when rel is untouched).
func updateOf(us []delta.Update, rel string) delta.Update {
	for _, u := range us {
		if u.Rel == rel {
			return u
		}
	}
	return delta.Update{}
}

// reads reports whether any of st's operands reads a relation us
// updates.
func reads(st *viewState, us []delta.Update) bool {
	for _, op := range st.bound.Operands {
		if updateOf(us, op.Rel).Rel != "" {
			return true
		}
	}
	return false
}

// executeBatchLocked is the commit pipeline, generalized from one
// transaction to an ordered group. Per-transaction failures (unknown
// relation, arity, a failing per-tx view delta) are recorded on the
// request and the transaction is excluded from the group; a failure in
// a shared phase returns an error with the engine untouched — nothing
// is installed until every delta is validated and the whole batch is
// durably logged.
//
// Phases:
//  1. net effects: each transaction's delta.Tx.NetOf runs against the
//     base as the earlier members left it, read through the group's
//     running composed delta (delta.Fold) rather than a copy.
//  2. composition (§6): the fold is the group's one net delta per
//     relation; intra-group churn cancelled in it and never reaches
//     maintenance.
//  3. maintenance: classify the touched views, then the maint and
//     validate stages, against the pre-group base; recomputes
//     materialize from a post-state clone (postState).
//  4. log: all payloads appended with a single fsync (logBatch, or the
//     engine's own log for a solo commit).
//  5. install + publish: the composed delta applies to the bases — in
//     place unless a reader pinned them, their indexes with them —
//     view states install, ONE COW snapshot publishes. Nothing in this
//     phase can fail.
//
// ct (nil when obs is detached) times every phase as a pipeline stage
// and, with a tracer attached, emits the stage and per-view task spans that
// the flight recorder assembles into the commit's trace (trace.go).
func (e *Engine) executeBatchLocked(reqs []*groupReq, logBatch func([][]byte) error, ct *commitTrace) ([]notification, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if logBatch == nil {
		logBatch = e.logOne
	}
	batchMode := len(reqs) > 1

	// Phase 1: per-tx net effects against the base as changed by the
	// earlier members. e.base stays at the pre-group state B0 until
	// install — maintenance deltas are defined against it.
	// Per-transaction subscriber deltas read each member's own
	// pre-state, so only they keep an overlay of clones.
	run := &maintRun{ct: ct}
	var fold delta.Fold
	if batchMode && e.anyPerTxView() {
		run.work = make(map[string]*relation.Relation)
	}
	lookup := func(name string) (delta.Instance, bool) {
		if r, ok := e.base[name]; ok {
			return fold.Over(name, r), true
		}
		return nil, false
	}

	se := ct.begin(stageNet)
	run.live = make([]*groupReq, 0, len(reqs))
	wrote := false
	for _, r := range reqs {
		updates, err := r.tx.NetOf(lookup)
		if err != nil {
			r.err = err
			continue
		}
		r.res = TxResult{Updates: updates, Trace: ct.traceID()}
		r.touched = make(map[string]bool, len(updates))
		for _, u := range updates {
			r.touched[u.Rel] = true
		}
		if run.work != nil {
			// Per-tx view deltas for subscribed views: each subscriber
			// sees one alert per transaction, not one per group.
			if err := e.perTxViewDeltas(r, updates, run.work); err != nil {
				r.err = err
				continue
			}
			for _, u := range updates {
				if _, ok := run.work[u.Rel]; !ok {
					run.work[u.Rel] = e.base[u.Rel].Clone()
				}
				if err := u.Apply(run.work[u.Rel]); err != nil {
					// Unreachable: Net guarantees disjointness against the
					// very state the update applies to. Poison the batch
					// rather than risk a torn overlay.
					se.end(obs.KV{K: "err", V: true})
					return nil, fmt.Errorf("db: internal: overlay apply failed: %w", err)
				}
			}
		}
		fold.Add(updates)
		wrote = wrote || len(updates) > 0
		run.live = append(run.live, r)
	}
	if se.span != nil {
		se.end(obs.KV{K: "txs", V: len(reqs)}, obs.KV{K: "live", V: len(run.live)})
	} else {
		se.end()
	}
	if len(run.live) == 0 {
		return nil, nil
	}

	// Phase 2: §6 composition of the group's net effects, folded as the
	// members ran.
	se = ct.begin(stageCompose)
	run.composed = fold.Updates()
	if se.span != nil {
		se.end(obs.KV{K: "relations", V: len(run.composed)})
	} else {
		se.end()
	}

	// Phase 3: classify, maintain, validate.
	e.classify(run, batchMode)
	defer clear(run.cands) // drop the commit's pointers from the scratch
	if err := e.maintStage(run); err != nil {
		return nil, err
	}
	if err := e.validateStage(run); err != nil {
		return nil, err
	}

	// Phase 4: durably log the whole group with one fsync, before any
	// of it becomes visible. A log failure aborts with the engine
	// untouched (the log truncates a failed append back out).
	var payloads [][]byte
	for _, r := range run.live {
		if r.payload != nil {
			payloads = append(payloads, r.payload)
		}
	}
	if logBatch != nil && len(payloads) > 0 {
		if ct.tracing() {
			se = ct.begin(stageFsync, obs.KV{K: "payloads", V: len(payloads)})
		} else {
			se = ct.begin(stageFsync)
		}
		if err := logBatch(payloads); err != nil {
			se.end(obs.KV{K: "err", V: true})
			return nil, err
		}
		se.end()
	} else {
		ct.note(stageFsync, 0) // in-memory batch: keep stage counts aligned
	}

	// Phase 5: install and publish. An install that retired the
	// published snapshot always publishes its successor.
	ns, err := e.installStage(run)
	if wrote || len(run.ws) > 0 {
		e.publishStage(ct)
	}
	if err != nil {
		return nil, err
	}
	if run.wentStale {
		// A deferred view just started a backlog: wake the scheduler so
		// a MaxStaleness SLO deadline is planned against it immediately.
		e.sched.poke()
	}
	return ns, nil
}

// anyPerTxView reports whether some view takes per-transaction deltas
// inside a group (perTxView). Callers hold the engine lock.
func (e *Engine) anyPerTxView() bool {
	for _, st := range e.views {
		if perTxView(st) {
			return true
		}
	}
	return false
}

// postState returns the commit's post-state instances of the relations
// its composed delta writes: clones with the delta applied, since
// e.base stays at the pre-state until install. They are built on first
// use — only recompute shadows read them — or already are the overlay
// the per-transaction deltas built. Callers hold the engine lock.
func (e *Engine) postState(run *maintRun) map[string]*relation.Relation {
	if run.work == nil {
		run.work = make(map[string]*relation.Relation, len(run.composed))
		for _, u := range run.composed {
			r := e.base[u.Rel].Clone()
			_ = u.Apply(r) // cannot fail: Net checked every arity
			run.work[u.Rel] = r
		}
	}
	return run.work
}

// classify sorts the views the commit touched into the run, in view
// order. Counters follow the per-tx touch union, so
// ViewStats.Transactions and PendingTx match the serial path even when
// composition cancels the data change.
func (e *Engine) classify(run *maintRun, batchMode bool) {
	unionTouched := make(map[string]bool)
	for _, r := range run.live {
		for rel := range r.touched {
			unionTouched[rel] = true
		}
	}
	run.cands = e.routeCands[:0]
	for _, name := range e.viewOrder {
		st := e.views[name]
		if !e.viewTouched(st, unionTouched) {
			continue
		}
		touchCount := 0
		for _, r := range run.live {
			if e.viewTouched(st, r.touched) {
				touchCount++
			}
		}
		switch {
		case st.deferred:
			pend := e.stagePending(st, run.composed)
			run.ws = append(run.ws, &refreshed{st: st, deferred: true, pend: pend, touchCount: touchCount})
		case batchMode && perTxView(st):
			run.ws = append(run.ws, &refreshed{st: st, perTx: true, touchCount: touchCount,
				decision: decisionLabel(st.cfg, PolicyDifferential)})
		case !reads(st, run.composed):
			// The group's churn cancelled before reaching this view: no
			// data change, but the touch counters still advance.
			run.ws = append(run.ws, &refreshed{st: st, noop: true, touchCount: touchCount})
		default:
			e.plan(run, st, touchCount, run.composed)
		}
	}
	e.routeCands = run.cands
}

// plan adds a view the maint stage must bring up to date over updates —
// a commit's composed delta or a refresh's backlog: as a recompute
// shadow of the post-state (a commit's postState; a refresh's is the
// base), as a routing candidate when the view filters, or as a
// differential computation. Callers hold the engine lock.
func (e *Engine) plan(run *maintRun, st *viewState, touchCount int, updates []delta.Update) {
	policy := st.cfg.Policy
	if policy == PolicyAdaptive {
		policy = e.chooseAdaptive(st, updates)
	}
	switch {
	case policy == PolicyRecompute:
		var work map[string]*relation.Relation
		if !run.refresh {
			work = e.postState(run)
		}
		run.ws = append(run.ws, &refreshed{st: st, task: recomputeTask, touchCount: touchCount, refresh: run.refresh,
			insts:    operandInstances(st.bound, work, e.base),
			decision: decisionLabel(st.cfg, PolicyRecompute)})
	case st.cfg.Maint.Filter:
		// The view's slot in ws is held (nil) to keep view order; routing
		// fills it only if a tuple reaches the view.
		run.cands = append(run.cands, newRouteCand(st, touchCount, len(run.ws), updates))
		run.ws = append(run.ws, nil)
	default:
		w := e.newDifferential(st, touchCount, updates)
		w.task, w.refresh = deltaTask, run.refresh
		run.ws = append(run.ws, w)
	}
}

// maintStage is the maint stage: route the candidates, then compute
// every differential delta, against the frozen pre-state, and every
// recompute shadow — one task per view, in view order, on the goroutine
// holding the engine lock. Each task gets its own child span, and the
// longest one is the slowest_task component.
//
// A view's failure lands on its w.err; the returned error is a routing
// failure, which fails the whole run.
func (e *Engine) maintStage(run *maintRun) error {
	ct := run.ct
	stageStart := time.Now()
	maintSE := ct.begin(stageMaint)
	var routing routeStats
	if len(run.cands) > 0 {
		if err := e.routeRun(run, &routing); err != nil {
			maintSE.end(obs.KV{K: "err", V: true})
			return err
		}
		n := 0
		for _, w := range run.ws {
			if w != nil {
				run.ws[n] = w
				n++
			}
		}
		run.ws = run.ws[:n]
	}

	var maxTask time.Duration
	var nDiff, nRec int
	for _, w := range run.ws {
		if w.task == noTask {
			continue
		}
		recompute := w.task == recomputeTask
		if recompute {
			nRec++
		} else {
			nDiff++
		}
		var sp obs.Span
		if ct.tracing() {
			name := "maint.task"
			if recompute {
				name = "maint.recompute"
			}
			sp = ct.task(maintSE.ctx, name, obs.KV{K: "view", V: w.st.name})
		}
		start := time.Now()
		w.wait = start.Sub(stageStart)
		switch {
		case recompute:
			var vs diffeval.Stats
			w.vc, vs, w.err = w.st.maint.Materialize(w.insts, nil)
			w.vcScanned = vs.BaseRowsScanned
		case w.refresh:
			// The base is the current state; a refresh computes against
			// the state its backlog started from.
			if w.insts, w.err = e.preRefreshInstances(w.st); w.err == nil {
				w.d, w.err = w.st.maint.ComputeDeltaPerOperand(w.insts, w.perOp)
			}
		default:
			w.d, w.err = w.st.maint.ComputeDeltaPerOperand(w.insts, w.perOp)
		}
		w.computeDur = time.Since(start)
		if sp != nil {
			sp.End(obs.KV{K: "err", V: w.err != nil})
		}
		if w.err == nil && w.computeDur > maxTask {
			maxTask = w.computeDur
		}
	}
	// The routed views' filter verdicts were reached before their tasks
	// ran; report them with the delta like any filtered view's.
	for i := range run.cands {
		if c := &run.cands[i]; c.w != nil && c.w.d != nil {
			c.verdicts(c.w.d)
		}
	}

	if maintSE.span != nil {
		maintSE.end(obs.KV{K: "differential", V: nDiff}, obs.KV{K: "recompute", V: nRec},
			obs.KV{K: "tuples", V: routing.tuples}, obs.KV{K: "candidates", V: routing.candidates},
			obs.KV{K: "routed_views", V: routing.views})
	} else {
		maintSE.end()
	}
	ct.note(stageSlowestTask, maxTask)
	return nil
}

// routeRun routes the run's candidates (route.go) and sorts the
// outcome into the run: a view some tuple reached joins the
// differential set with its filtered updates. A commit routes its
// composed delta once for all candidates, and a view nothing reached is
// done (installAway). A refresh routes each view's own backlog, and a
// view nothing reached still installs an empty delta: its backlog
// clears and its verdicts count.
func (e *Engine) routeRun(run *maintRun, rs *routeStats) error {
	if run.refresh {
		for i := range run.cands {
			if err := e.routeComposed(run.cands[i].in, run.cands[i:i+1], rs); err != nil {
				return err
			}
		}
	} else if err := e.routeComposed(run.composed, run.cands, rs); err != nil {
		return err
	}
	for i := range run.cands {
		c := &run.cands[i]
		switch {
		case c.w != nil:
			c.w.task, c.w.refresh = deltaTask, run.refresh
			run.ws[c.at] = c.w
		case run.refresh:
			c.w = e.newDifferential(c.st, 0, nil)
			c.w.refresh = true
			c.w.d = &diffeval.ViewDelta{}
			run.ws[c.at] = c.w
		}
	}
	return nil
}

// validateStage checks every delta against its view before anything
// becomes visible, once: install folds it with diffeval.Fold. Per-tx
// delta chains fold onto a private clone, each step validated by
// diffeval.Apply; the clone becomes the view's next state. A failing
// view keeps its error on w.err; the run's first failure, maint or
// validate, in install order, is returned.
func (e *Engine) validateStage(run *maintRun) error {
	se := run.ct.begin(stageValidate)
	var first error
	for _, w := range run.ws {
		if w.err == nil && w.d != nil {
			w.err = diffeval.Validate(w.st.data, w.d)
		}
		if w.err == nil && w.perTx {
			w.cow = w.st.data.Clone()
			for _, r := range run.live {
				if d := r.viewDeltas[w.st.name]; d != nil {
					if err := diffeval.Apply(w.cow, d); err != nil {
						w.err = err
						break
					}
				}
			}
		}
		if w.err != nil && first == nil {
			first = w.err
		}
	}
	if first != nil {
		se.end(obs.KV{K: "err", V: true})
	} else {
		se.end()
	}
	return first
}

// installStage is the install stage, the one stage that writes
// published objects: it retires the published snapshot unless a reader
// pinned it (retireLocked), so what no reader holds is written in
// place. A commit's composed delta applies to its bases — cloned first
// only while a pinned snapshot shares them — which keep their own
// indexes current, then every view of the run takes its next state.
// Nothing here can fail; a run that writes anything publishes next.
func (e *Engine) installStage(run *maintRun) ([]notification, error) {
	se := run.ct.begin(stageInstall)
	if len(run.composed) > 0 || len(run.ws) > 0 {
		e.retireLocked()
	}
	for _, u := range run.composed {
		r := e.base[u.Rel]
		if e.baseShared[u.Rel] {
			r = r.Clone()
			e.base[u.Rel] = r
			e.baseShared[u.Rel] = false
		}
		if err := u.Apply(r); err != nil {
			// Unreachable: Net checked every arity.
			return nil, fmt.Errorf("db: internal: composed delta failed to install on %q: %w", u.Rel, err)
		}
		e.ckptDirty[u.Rel] = true
	}
	var ns []notification
	for _, w := range run.ws {
		st := w.st
		st.stats.Transactions += w.touchCount
		st.snapDirty = true
		if w.deferred {
			if st.stats.PendingTx == 0 && w.touchCount > 0 {
				// 0→nonzero backlog: the view just went stale; its
				// staleness clock starts at this commit.
				st.pendingSince = e.now()
				run.wentStale = true
			}
			e.installPending(st, w.pend)
			st.stats.PendingTx += w.touchCount
			if st.vo != nil {
				st.vo.pending.Set(float64(st.stats.PendingTx))
			}
			continue
		}
		if w.noop {
			continue
		}
		t0, before := time.Now(), st.stats
		st.written = true
		st.folded, st.foldedOnto = nil, nil
		switch {
		case w.perTx:
			st.data = w.cow
			st.dataShared = false
			for _, r := range run.live {
				if d := r.viewDeltas[st.name]; d != nil {
					st.noteDelta(d)
				}
			}
		case w.d != nil:
			st.folded, st.foldedOnto = w.d, st.data
			if st.dataShared {
				st.data = st.data.Clone()
				st.dataShared = false
			}
			// validateStage checked w.d against this very state.
			if err := diffeval.Fold(st.data, w.d); err != nil {
				return nil, fmt.Errorf("db: internal: validated delta failed to install on %q: %w", st.name, err)
			}
			st.noteDelta(w.d)
			ns = append(ns, st.notifications(st.name, w.d.Rows)...)
		default:
			if len(st.subscribers) > 0 {
				ns = append(ns, st.notifications(st.name, countedDiff(st.data, w.vc))...)
			}
			st.data = w.vc
			st.dataShared = false
			st.stats.Recomputes++
			st.stats.BaseRowsScanned += w.vcScanned
		}
		if w.refresh {
			st.pending = make(map[string]delta.Update)
			st.stats.PendingTx = 0
			st.pendingSince = time.Time{}
			if st.vo != nil {
				st.vo.pending.Set(0)
				st.vo.staleness.Set(0)
			}
		}
		st.lastMaint = maintRecord{
			At:       time.Now(),
			Decision: w.decision,
			Wait:     w.wait,
			Compute:  w.computeDur,
			Install:  time.Since(t0),
			Trace:    run.ct.traceID(),
			Inserts:  st.stats.DeltaInserts - before.DeltaInserts,
			Deletes:  st.stats.DeltaDeletes - before.DeltaDeletes,
		}
		if st.vo != nil {
			st.vo.refreshHist(w.decision).ObserveDuration(w.computeDur + time.Since(t0))
		}
	}
	for i := range run.cands {
		if run.cands[i].w == nil {
			run.cands[i].installAway()
		}
	}
	// Per-tx subscriber notifications, transaction-major: subscribers
	// observe the same per-transaction alert stream the serial path
	// produces (batch mode only; a batch of one rode the w.d path).
	if len(run.live) > 1 {
		for _, r := range run.live {
			for _, w := range run.ws {
				if !w.perTx {
					continue
				}
				if d := r.viewDeltas[w.st.name]; d != nil {
					ns = append(ns, w.st.notifications(w.st.name, d.Rows)...)
				}
			}
		}
	}

	// Per-request view counters follow each transaction's own touch
	// set, exactly as if it had committed alone.
	for _, r := range run.live {
		for _, w := range run.ws {
			if !e.viewTouched(w.st, r.touched) {
				continue
			}
			if w.deferred {
				r.res.ViewsDeferred++
			} else {
				r.res.ViewsRefreshed++
			}
		}
		for i := range run.cands {
			if run.cands[i].w == nil && e.viewTouched(run.cands[i].st, r.touched) {
				r.res.ViewsRefreshed++
			}
		}
	}
	if se.span != nil {
		se.end(obs.KV{K: "views", V: len(run.ws)})
	} else {
		se.end()
	}
	return ns, nil
}

// publishStage publishes the run's snapshot.
func (e *Engine) publishStage(ct *commitTrace) {
	se := ct.begin(stagePublish)
	e.publishLocked()
	se.end()
}

// refreshLocked is the one refresh path, behind every trigger:
// RefreshView, RefreshAll, the scheduler's interval and SLO refreshes,
// MaxStale reads, and the drains of SetViewPolicy and the autopolicy
// flip. A refresh is a commit over each view's backlog: one refreshed
// per view with a backlog, through the maint, validate and install
// stages, then one publish. It runs under its own trace (root span
// root), which feeds neither the commit stage histograms nor
// CriticalPath.
//
// A view that fails keeps its backlog while the others install; the
// first failure, in sts order, is returned. then, when non-nil, runs
// after the install if nothing failed, and before the publish: a policy
// flip publishes together with its drain. Callers hold the engine lock.
func (e *Engine) refreshLocked(root string, sts []*viewState, then func()) ([]notification, error) {
	run := &maintRun{refresh: true}
	for _, st := range sts {
		if len(st.pending) == 0 {
			continue
		}
		backlog := make([]delta.Update, 0, len(st.pending))
		for _, u := range st.pending {
			backlog = append(backlog, u)
		}
		e.plan(run, st, 0, backlog)
	}
	var ns []notification
	var err error
	if len(run.ws) > 0 {
		view := ""
		if len(sts) == 1 {
			view = sts[0].name
		}
		run.ct = e.newRefreshTrace(root, view)
		if err = e.maintStage(run); err != nil {
			run.ws = nil // routing failed: nothing installs
		} else {
			err = e.validateStage(run)
			n := 0
			for _, w := range run.ws {
				if w.err == nil {
					run.ws[n] = w
					n++
				}
			}
			run.ws = run.ws[:n]
			var ierr error
			if ns, ierr = e.installStage(run); ierr != nil {
				err = ierr
			}
		}
	}
	flip := err == nil && then != nil
	if flip {
		then()
	}
	if len(run.ws) > 0 || flip {
		e.publishStage(run.ct)
	}
	run.ct.close(err)
	return ns, err
}

// preRefreshInstances rebuilds the operand instances a deferred view
// was last refreshed against, B0 = B_now − I ∪ D, for every relation its
// backlog touched: private clones, so the delta computes from a frozen
// state. Callers hold the engine lock.
func (e *Engine) preRefreshInstances(st *viewState) ([]*relation.Relation, error) {
	insts := make([]*relation.Relation, len(st.bound.Operands))
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
	}
	return insts, nil
}

// perTxView reports whether a view gets per-transaction differential
// deltas inside a batch: it has subscribers, refreshes immediately,
// and is not pinned to recompute (a pinned-recompute subscribed view
// notifies once per group via the recompute diff — documented in
// ARCHITECTURE.md). Adaptive views commit to differential here so the
// alert stream stays per-transaction.
func perTxView(st *viewState) bool {
	return len(st.subscribers) > 0 && !st.deferred && st.cfg.Policy != PolicyRecompute
}

// perTxViewDeltas computes r's differential deltas for every subscribed
// view it touches, against the overlay state BEFORE r applies. A
// filtered view gets r's updates through the relevance index like any
// other consumer; one nothing reached gets an empty delta carrying the
// verdicts. A relation an earlier group member wrote is read as its
// overlay clone, whose indexes carry that write.
func (e *Engine) perTxViewDeltas(r *groupReq, updates []delta.Update, work map[string]*relation.Relation) error {
	var ws []*refreshed
	var cands []routeCand
	for _, name := range e.viewOrder {
		switch st := e.views[name]; {
		case !perTxView(st) || !e.viewTouched(st, r.touched):
		case st.cfg.Maint.Filter:
			cands = append(cands, newRouteCand(st, 0, 0, updates))
		default:
			ws = append(ws, e.newDifferential(st, 0, updates))
		}
	}
	if len(ws) == 0 && len(cands) == 0 {
		return nil
	}
	if err := e.routeComposed(updates, cands, &routeStats{}); err != nil {
		return err
	}
	r.viewDeltas = make(map[string]*diffeval.ViewDelta, len(ws)+len(cands))
	for i := range cands {
		if c := &cands[i]; c.w != nil {
			ws = append(ws, c.w)
		} else {
			r.viewDeltas[c.st.name] = &diffeval.ViewDelta{}
		}
	}
	for _, w := range ws {
		d, err := w.st.maint.ComputeDeltaPerOperand(operandInstances(w.st.bound, work, e.base), w.perOp)
		if err != nil {
			return err
		}
		r.viewDeltas[w.st.name] = d
	}
	for i := range cands {
		cands[i].verdicts(r.viewDeltas[cands[i].st.name])
	}
	return nil
}
