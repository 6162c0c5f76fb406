// Group commit: concurrent Execute callers enqueue their transactions
// and a single scheduler goroutine drains the queue in batches. Each
// batch pays ONE log fsync (wal.Log.AppendBatch via the logBatch
// callback), ONE composed 3-phase maintenance pass (§6 composition
// cancels insert/delete churn before it reaches the views), and ONE
// snapshot publish, then fans the per-transaction results back out to
// the waiting callers.
//
// The serial path is the same pipeline with a batch of one:
// executeLocked wraps executeBatchLocked, so group-on and group-off
// share every invariant (atomicity, COW discipline, §4 filtering).
package db

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/relation"
)

// DefaultGroupMaxBatch bounds a group when EnableGroupCommit is given
// a non-positive size.
const DefaultGroupMaxBatch = 64

// groupReq is one caller's transaction riding a group.
type groupReq struct {
	tx       *delta.Tx
	payload  []byte    // pre-encoded commit-log record; nil when not durable
	enqueued time.Time // when submit queued the request (queue_wait stage)

	// Filled by the pipeline.
	touched    map[string]bool                // relations in this tx's net effect
	viewDeltas map[string]*diffeval.ViewDelta // per-tx deltas for subscribed views
	res        TxResult
	err        error
	done       chan struct{} // closed when res/err are final
}

// group is the scheduler state. One goroutine (loop) owns batching;
// callers only append to the queue and wait.
type group struct {
	e        *Engine
	maxBatch int
	window   time.Duration
	logBatch func(payloads [][]byte) error // one fsync per call; nil when not durable

	mu       sync.Mutex
	queue    []*groupReq
	lastSize int  // size of the last batch: evidence of concurrency
	closing  bool // reject new submissions; drain what is queued

	wake    chan struct{} // cap 1: queue went non-empty
	full    chan struct{} // cap 1: queue reached maxBatch, cut the window short
	stop    chan struct{}
	stopped chan struct{}
}

// EnableGroupCommit starts the group-commit scheduler: Execute calls
// enqueue and a leader goroutine commits batches of up to maxBatch
// transactions (non-positive: DefaultGroupMaxBatch), waiting up to
// window for stragglers only when there is evidence of concurrency — a
// solo writer never pays the window. logBatch, when non-nil, must
// persist all payloads with a single fsync (wal.Log.AppendBatch);
// it is called before the batch becomes visible.
func (e *Engine) EnableGroupCommit(maxBatch int, window time.Duration, logBatch func([][]byte) error) {
	e.DisableGroupCommit()
	if maxBatch <= 0 {
		maxBatch = DefaultGroupMaxBatch
	}
	if window < 0 {
		window = 0
	}
	g := &group{
		e:        e,
		maxBatch: maxBatch,
		window:   window,
		logBatch: logBatch,
		wake:     make(chan struct{}, 1),
		full:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	e.group.Store(g)
	go g.loop()
}

// DisableGroupCommit stops the scheduler after draining queued
// transactions; later Execute calls take the serial path. No-op when
// group commit is off.
func (e *Engine) DisableGroupCommit() {
	g := e.group.Swap(nil)
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closing = true
	g.mu.Unlock()
	close(g.stop)
	<-g.stopped
}

// GroupCommitEnabled reports whether the scheduler is running.
func (e *Engine) GroupCommitEnabled() bool { return e.group.Load() != nil }

// submit enqueues a transaction and blocks until its group commits.
// ok=false means the scheduler is shutting down and the caller must
// take the serial path.
func (g *group) submit(tx *delta.Tx, payload []byte) (TxResult, error, bool) {
	return g.submitCtx(context.Background(), tx, payload)
}

// submitCtx is submit with cancellation while queued: if ctx ends
// before a leader claims the request, the transaction is withdrawn and
// ctx's error returned. Once a leader has popped the request the
// commit is in flight and its outcome stands — cancellation can skip
// the wait for a batch, never tear a committed member back out.
func (g *group) submitCtx(ctx context.Context, tx *delta.Tx, payload []byte) (TxResult, error, bool) {
	req := &groupReq{tx: tx, payload: payload, enqueued: time.Now(), done: make(chan struct{})}
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return TxResult{}, nil, false
	}
	g.queue = append(g.queue, req)
	n := len(g.queue)
	target := g.lastSize
	g.mu.Unlock()
	if n == 1 {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
	// Cut the leader's window short once the expected cohort is in:
	// writers released by one group re-enqueue together, so the last
	// batch size predicts how many are coming. Without the cut every
	// group would pay the full window; with it the steady-state wait is
	// just the cohort's re-arrival time (microseconds).
	if n >= g.maxBatch || (target > 1 && n >= target) {
		select {
		case g.full <- struct{}{}:
		default:
		}
	}
	if done := ctx.Done(); done != nil {
		select {
		case <-req.done:
		case <-done:
			if g.tryRemove(req) {
				return TxResult{}, ctx.Err(), true
			}
			// A leader already claimed the request: await its verdict.
			<-req.done
		}
	} else {
		<-req.done
	}
	return req.res, req.err, true
}

// tryRemove withdraws a still-queued request; false means a leader has
// already taken it.
func (g *group) tryRemove(req *groupReq) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, r := range g.queue {
		if r == req {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (g *group) loop() {
	defer close(g.stopped)
	for {
		select {
		case <-g.wake:
			g.drainAdaptive()
		case <-g.stop:
			g.drain()
			return
		}
	}
}

// drainAdaptive processes batches until the queue is empty. The window
// wait runs only with evidence of concurrency (more than one queued,
// or the previous batch had more than one member): a lone writer
// commits immediately, a burst accumulates into one fsync.
func (g *group) drainAdaptive() {
	for {
		g.mu.Lock()
		n, last := len(g.queue), g.lastSize
		g.mu.Unlock()
		if n == 0 {
			return
		}
		// Wait only with evidence that more members are coming: either
		// the previous batch was concurrent and its cohort has not fully
		// re-arrived (n < last), or concurrency just appeared (n > 1
		// after a serial batch). A lone writer never waits, and once the
		// expected cohort is in, neither does anyone else — submit's
		// early-wake on g.full ends the window immediately, so the
		// window is a straggler ceiling, not a tax.
		var waited time.Duration
		if g.window > 0 && n < g.maxBatch && ((last > 1 && n < last) || (last <= 1 && n > 1)) {
			t := time.NewTimer(g.window)
			start := time.Now()
			select {
			case <-g.full:
			case <-t.C:
			case <-g.stop:
				// Shutting down: commit what is queued without waiting.
			}
			t.Stop()
			waited = time.Since(start)
		}
		batch := g.pop()
		if len(batch) == 0 {
			continue
		}
		if o := g.e.o.Load(); o != nil && o.groupSize != nil {
			o.groupSize.Observe(float64(len(batch)))
			o.groupWait.ObserveDuration(waited)
		}
		g.run(batch, waited)
	}
}

// drain commits everything queued with no window waits (shutdown).
func (g *group) drain() {
	for {
		batch := g.pop()
		if len(batch) == 0 {
			return
		}
		g.run(batch, 0)
	}
}

// pop takes up to maxBatch requests off the queue.
func (g *group) pop() []*groupReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.queue)
	if n > g.maxBatch {
		n = g.maxBatch
	}
	batch := g.queue[:n:n]
	g.queue = append([]*groupReq(nil), g.queue[n:]...)
	g.lastSize = n
	select {
	case <-g.full: // consume a stale early-wake from the served burst
	default:
	}
	return batch
}

// run commits one batch and releases its callers. window is how long
// the leader held the batch open waiting for stragglers.
func (g *group) run(batch []*groupReq, window time.Duration) {
	g.runOnce(batch, window)
	for _, r := range batch {
		close(r.done)
	}
}

// runOnce runs the batch pipeline under its own commit trace
// (db.commit_group). A shared-phase failure in a batch of several
// transactions cannot be attributed to one member, so each remaining
// member retries solo — per-transaction atomicity holds and one
// poisoned transaction never takes the group down with it; each retry
// is its own pipeline run with its own trace. A solo run's shared
// failure IS attributable and lands on the request.
func (g *group) runOnce(batch []*groupReq, window time.Duration) {
	var queueWait time.Duration
	now := time.Now()
	for _, r := range batch {
		if r.enqueued.IsZero() {
			continue
		}
		if w := now.Sub(r.enqueued); w > queueWait {
			queueWait = w
		}
	}
	ct := g.e.newGroupTrace(len(batch), queueWait, window)
	ns, err := g.e.executeBatchLocked(batch, g.logBatch, ct)
	ct.close(err)
	if err != nil {
		if len(batch) == 1 {
			if batch[0].err == nil {
				batch[0].err = err
			}
			return
		}
		for _, r := range batch {
			if r.err != nil {
				continue // per-tx failure already attributed in the failed run
			}
			r.res, r.viewDeltas, r.touched = TxResult{}, nil, nil
			g.runOnce([]*groupReq{r}, 0)
		}
		return
	}
	fire(ns)
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
//  1. net effects: each transaction's delta.Tx.Net runs against an
//     overlay of cloned base relations that accumulates the earlier
//     members' effects, so later members see their predecessors.
//  2. composition (§6): delta.ComposeTxs folds the per-tx nets into
//     one net delta per relation; intra-group churn cancels here and
//     never reaches maintenance.
//  3. maintenance: ONE pass over the composed delta — the serial
//     pipeline's classify / route / compute-on-pool / validate. The
//     §4 filter runs here once per tuple for all filtered views
//     (route.go), so only views some tuple reaches get a task;
//     recomputes materialize from the overlay post-state.
//  4. log: all payloads appended with a single fsync (logBatch).
//  5. install + publish: bases swap to the overlay clones, indexes
//     advance by the composed delta, view states install, ONE COW
//     snapshot publishes. Nothing in this phase can fail.
//
// ct (nil when obs is detached) times every phase as a pipeline stage
// and, with a tracer attached, emits the stage and fan-out spans that
// the flight recorder assembles into the commit's trace (trace.go).
func (e *Engine) executeBatchLocked(reqs []*groupReq, logBatch func([][]byte) error, ct *commitTrace) ([]notification, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	batchMode := len(reqs) > 1

	// Phase 1: per-tx net effects against the evolving overlay. e.base
	// stays frozen at the pre-group state B0 — maintenance deltas and
	// the persistent indexes are defined against it.
	work := make(map[string]*relation.Relation)
	lookup := func(name string) (*relation.Relation, bool) {
		if r, ok := work[name]; ok {
			return r, true
		}
		r, ok := e.base[name]
		return r, ok
	}
	overlayInst := func(b *expr.Bound) []*relation.Relation {
		insts := make([]*relation.Relation, len(b.Operands))
		for i, op := range b.Operands {
			r, _ := lookup(op.Rel)
			insts[i] = r
		}
		return insts
	}

	se := ct.begin(stageNet)
	live := make([]*groupReq, 0, len(reqs))
	nets := make([][]delta.Update, 0, len(reqs))
	for _, r := range reqs {
		updates, err := r.tx.Net(lookup)
		if err != nil {
			r.err = err
			continue
		}
		r.res = TxResult{Updates: updates, Trace: ct.traceID()}
		r.touched = make(map[string]bool, len(updates))
		for _, u := range updates {
			r.touched[u.Rel] = true
		}
		// Per-tx view deltas for subscribed views (batch only): each
		// subscriber sees one alert per transaction, not one per group.
		// Computed against the overlay BEFORE this tx applies; indexes
		// are only consulted for relations still at their pre-group
		// state (dirty ones fall back to scans).
		if batchMode {
			if err := e.perTxViewDeltas(r, updates, overlayInst, work); err != nil {
				r.err = err
				continue
			}
		}
		for _, u := range updates {
			if _, ok := work[u.Rel]; !ok {
				work[u.Rel] = e.base[u.Rel].Clone()
			}
			if err := u.Apply(work[u.Rel]); err != nil {
				// Unreachable: Net guarantees disjointness against the
				// very state the update applies to. Poison the batch
				// rather than risk a torn overlay.
				se.end(obs.KV{K: "err", V: true})
				return nil, fmt.Errorf("db: internal: overlay apply failed: %w", err)
			}
		}
		live = append(live, r)
		nets = append(nets, updates)
	}
	if se.span != nil {
		se.end(obs.KV{K: "txs", V: len(reqs)}, obs.KV{K: "live", V: len(live)})
	} else {
		se.end()
	}
	if len(live) == 0 {
		return nil, nil
	}

	// Phase 2: §6 composition of the group's net effects.
	se = ct.begin(stageCompose)
	composed, err := delta.ComposeTxs(nets)
	if err != nil {
		se.end(obs.KV{K: "err", V: true})
		return nil, err
	}
	if se.span != nil {
		se.end(obs.KV{K: "relations", V: len(composed)})
	} else {
		se.end()
	}
	composedTouched := make(map[string]bool, len(composed))
	for _, u := range composed {
		composedTouched[u.Rel] = true
	}
	composedOf := func(rel string) delta.Update { // zero when rel is untouched
		for _, u := range composed {
			if u.Rel == rel {
				return u
			}
		}
		return delta.Update{}
	}
	unionTouched := make(map[string]bool)
	for _, r := range live {
		for rel := range r.touched {
			unionTouched[rel] = true
		}
	}

	// Phase 3: classify the touched views. Counters follow the per-tx
	// touch union so ViewStats.Transactions and PendingTx match the
	// serial path even when composition cancels the data change.
	var work3 []*refreshed
	var diff []*refreshed
	var recs []*refreshed
	cands := e.routeCands[:0]
	for _, name := range e.viewOrder {
		st := e.views[name]
		if !e.viewTouched(st, unionTouched) {
			continue
		}
		touchCount := 0
		for _, r := range live {
			if e.viewTouched(st, r.touched) {
				touchCount++
			}
		}
		if st.deferred {
			pend := e.stagePending(st, composed)
			work3 = append(work3, &refreshed{st: st, deferred: true, pend: pend, touchCount: touchCount})
			continue
		}
		if batchMode && perTxView(st) {
			w := &refreshed{st: st, perTx: true, touchCount: touchCount,
				decision: decisionLabel(st.cfg, PolicyDifferential)}
			work3 = append(work3, w)
			continue
		}
		if !e.viewTouched(st, composedTouched) {
			// The group's churn cancelled before reaching this view: no
			// data change, but the touch counters still advance.
			work3 = append(work3, &refreshed{st: st, noop: true, touchCount: touchCount})
			continue
		}
		policy := st.cfg.Policy
		if policy == PolicyAdaptive {
			policy = e.chooseAdaptive(st, composed)
		}
		switch policy {
		case PolicyRecompute:
			w := &refreshed{st: st, touchCount: touchCount, decision: decisionLabel(st.cfg, PolicyRecompute)}
			work3 = append(work3, w)
			recs = append(recs, w)
		default:
			if st.cfg.Maint.Filter {
				// Routed below: the view joins work3 and diff — at this
				// placeholder, to keep view order — only if a tuple
				// reaches it.
				c := routeCand{st: st, touchCount: touchCount, at: len(work3)}
				for _, op := range st.bound.Operands {
					c.checked += composedOf(op.Rel).Size()
				}
				cands = append(cands, c)
				work3 = append(work3, nil)
				continue
			}
			w := e.newDifferential(st, touchCount)
			for i, op := range st.bound.Operands {
				w.perOp[i] = composedOf(op.Rel)
			}
			work3 = append(work3, w)
			diff = append(diff, w)
		}
	}
	e.routeCands = cands
	defer clear(cands) // drop the commit's pointers from the scratch

	// Differential deltas of the composed net change, computed against
	// the frozen pre-group state on the worker pool (same contract as
	// the serial phase 1). With sharding, an eligible view expands into
	// one task per surviving shard of its modified operand's delta
	// (shard.go); the composed delta is split by shard once per
	// relation for the whole group, and the per-shard partial deltas
	// are ⊎-merged after the pool drains.
	//
	// The whole fan-out — differential tasks and recompute shadows — is
	// the maint stage; each unit of pool work gets its own child span,
	// and the longest one is the slowest_task critical-path component.
	maintSE := ct.begin(stageMaint)
	var maxTask time.Duration
	var routing routeStats
	var splits map[string][]delta.ShardUpdate // per-relation shard splits; sharded engines only
	if e.shards > 1 {
		splits = make(map[string][]delta.ShardUpdate)
	}
	if len(cands) > 0 {
		// §4 once per tuple: route the composed delta to the filtered
		// views (route.go). The reached ones join the differential set
		// with their filtered updates; the rest are done.
		var err error
		if routing, err = e.routeComposed(composed, cands); err != nil {
			maintSE.end(obs.KV{K: "err", V: true})
			return nil, err
		}
		for i := range cands {
			c := &cands[i]
			if c.w != nil {
				work3[c.at] = c.w
				diff = append(diff, c.w)
			} else if op := e.shardableOperand(c.st, composedTouched); op >= 0 {
				c.shardsPruned = len(e.splitComposed(c.st.bound.Operands[op].Rel, composed, splits))
			}
		}
		n := 0
		for _, w := range work3 {
			if w != nil {
				work3[n] = w
				n++
			}
		}
		work3 = work3[:n]
	}
	if len(diff) > 0 {
		var tasks []*commitTask
		for _, w := range diff {
			tasks = e.planShardTasks(w, composed, composedTouched, splits, tasks)
		}
		prov := provider{e: e}
		submit := time.Now()
		e.forEachParallel(len(tasks), func(i int) {
			t := tasks[i]
			var sp obs.Span
			if ct.tracing() {
				sp = ct.task(maintSE.ctx, "maint.task",
					obs.KV{K: "view", V: t.w.st.name}, obs.KV{K: "shard", V: t.part})
			}
			start := time.Now()
			t.wait = start.Sub(submit)
			t.d, t.err = t.w.st.maint.ComputeDeltaPerOperand(t.w.insts, t.perOp, prov)
			if t.err == nil && t.clone && t.w.st.dataShared {
				t.w.cow = t.w.st.data.Clone()
			}
			t.dur = time.Since(start)
			if sp != nil {
				sp.End(obs.KV{K: "err", V: t.err != nil})
			}
		})
		for _, t := range tasks {
			if t.err != nil {
				maintSE.end(obs.KV{K: "err", V: true})
				return nil, t.err
			}
			if t.dur > maxTask {
				maxTask = t.dur
			}
			w := t.w
			if t.part < 0 {
				w.d, w.computeDur, w.wait = t.d, t.dur, t.wait
				continue
			}
			w.parts[t.part] = t.d
			w.computeDur += t.dur
			if t.part == 0 || t.wait < w.wait {
				w.wait = t.wait
			}
		}
		for _, w := range diff {
			if w.d == nil {
				var err error
				if w.d, err = diffeval.MergeDeltas(w.parts); err != nil {
					maintSE.end(obs.KV{K: "err", V: true})
					return nil, err
				}
			}
		}
		// The routed views' filter verdicts were reached before their
		// tasks ran; report them with the delta like any filtered view's.
		for i := range cands {
			if c := &cands[i]; c.w != nil {
				c.w.d.Stats.FilterChecked = c.checked
				c.w.d.Stats.FilteredOut = c.checked - c.passed
			}
		}
		if o := e.o.Load(); o != nil && len(tasks) > 1 {
			if wall := time.Since(submit); wall > 0 {
				var sum time.Duration
				for _, t := range tasks {
					sum += t.dur
				}
				o.speedup.Observe(sum.Seconds() / wall.Seconds())
			}
		}
	}

	// Recompute shadows materialize from the overlay post-state (the
	// serial pipeline applied the bases first for the same effect).
	for _, w := range recs {
		w.insts = overlayInst(w.st.bound)
	}
	e.forEachParallel(len(recs), func(i int) {
		w := recs[i]
		var sp obs.Span
		if ct.tracing() {
			sp = ct.task(maintSE.ctx, "maint.recompute", obs.KV{K: "view", V: w.st.name})
		}
		start := time.Now()
		w.vc, w.err = eval.Materialize(w.st.bound, w.insts, w.st.cfg.EvalOpt)
		w.computeDur = time.Since(start)
		if sp != nil {
			sp.End(obs.KV{K: "err", V: w.err != nil})
		}
	})
	for _, w := range recs {
		if w.computeDur > maxTask {
			maxTask = w.computeDur
		}
	}
	if maintSE.span != nil {
		maintSE.end(obs.KV{K: "differential", V: len(diff)}, obs.KV{K: "recompute", V: len(recs)},
			obs.KV{K: "tuples", V: routing.tuples}, obs.KV{K: "candidates", V: routing.candidates},
			obs.KV{K: "routed_views", V: routing.views})
	} else {
		maintSE.end()
	}
	ct.note(stageSlowestTask, maxTask)

	// Validate every delta before anything becomes visible. Per-tx
	// delta chains fold onto a private clone, each step re-validated by
	// diffeval.Apply; the clone becomes the view's next state.
	se = ct.begin(stageValidate)
	for _, w := range work3 {
		if w.err == nil && w.d != nil {
			w.err = diffeval.Validate(w.st.data, w.d)
		}
		if w.err == nil && w.perTx {
			w.cow = w.st.data.Clone()
			for _, r := range live {
				if d := r.viewDeltas[w.st.name]; d != nil {
					if err := diffeval.Apply(w.cow, d); err != nil {
						w.err = err
						break
					}
				}
			}
		}
		if w.err != nil {
			se.end(obs.KV{K: "err", V: true})
			return nil, w.err
		}
	}
	se.end()

	// Phase 4: durably log the whole group with one fsync, before any
	// of it becomes visible. A log failure aborts with the engine
	// untouched (AppendBatch truncates a torn batch back out).
	logged := false
	if logBatch != nil {
		payloads := make([][]byte, 0, len(live))
		for _, r := range live {
			if r.payload != nil {
				payloads = append(payloads, r.payload)
			}
		}
		if len(payloads) > 0 {
			logged = true
			se = ct.begin(stageFsync, obs.KV{K: "payloads", V: len(payloads)})
			err := logBatch(payloads)
			se.end(obs.KV{K: "err", V: err != nil})
			if err != nil {
				return nil, err
			}
		}
	}
	if !logged {
		ct.note(stageFsync, 0) // in-memory batch: keep stage counts aligned
	}

	// Phase 5: install. Nothing below can fail.
	se = ct.begin(stageInstall)
	for rel, r := range work {
		e.base[rel] = r
		e.baseShared[rel] = false
	}
	for _, u := range composed {
		e.applyToIndexes(u)
		e.markCheckpointDirtyLocked(u)
	}
	var ns []notification
	wentStale := false
	for _, w := range work3 {
		name := w.st.name
		w.st.stats.Transactions += w.touchCount
		w.st.snapDirty = true
		if w.deferred {
			if w.st.stats.PendingTx == 0 && w.touchCount > 0 {
				// 0→nonzero backlog: the view just went stale; its
				// staleness clock starts at this commit.
				w.st.pendingSince = e.now()
				wentStale = true
			}
			e.installPending(w.st, w.pend)
			w.st.stats.PendingTx += w.touchCount
			if w.st.vo != nil {
				w.st.vo.pending.Set(float64(w.st.stats.PendingTx))
			}
			continue
		}
		if w.noop {
			continue
		}
		t0 := time.Now()
		switch {
		case w.perTx:
			w.st.data = w.cow
			w.st.dataShared = false
			for _, r := range live {
				if d := r.viewDeltas[name]; d != nil {
					w.st.noteDelta(d)
				}
			}
		case w.d != nil:
			if w.st.dataShared {
				if w.cow == nil {
					w.cow = w.st.data.Clone()
				}
				w.st.data = w.cow
				w.st.dataShared = false
			}
			if err := diffeval.Apply(w.st.data, w.d); err != nil {
				// Unreachable: validated above and Apply re-validates
				// before mutating, so the view is intact.
				return nil, fmt.Errorf("db: internal: staged delta failed to install on %q: %w", name, err)
			}
			w.st.noteDelta(w.d)
			if w.shardTasks > 0 || w.shardsPruned > 0 {
				w.st.stats.ShardTasks += w.shardTasks
				w.st.stats.ShardsPruned += w.shardsPruned
				if w.st.vo != nil {
					w.st.vo.shardTasks.Add(int64(w.shardTasks))
					w.st.vo.shardPruned.Add(int64(w.shardsPruned))
				}
			}
			ns = append(ns, w.st.notifications(name, w.d.Inserts, w.d.Deletes)...)
		default:
			if len(w.st.subscribers) > 0 {
				ins, del := countedDiff(w.st.data, w.vc)
				ns = append(ns, w.st.notifications(name, ins, del)...)
			}
			w.st.data = w.vc
			w.st.dataShared = false
			w.st.stats.Recomputes++
		}
		w.st.lastMaint = maintRecord{
			At:           time.Now(),
			Decision:     w.decision,
			Wait:         w.wait,
			Compute:      w.computeDur,
			Install:      time.Since(t0),
			ShardTasks:   w.shardTasks,
			ShardsPruned: w.shardsPruned,
			Trace:        ct.traceID(),
		}
		if w.d != nil {
			w.st.lastMaint.Inserts = w.d.Stats.DeltaInserts
			w.st.lastMaint.Deletes = w.d.Stats.DeltaDeletes
		} else if w.perTx {
			for _, r := range live {
				if d := r.viewDeltas[name]; d != nil {
					w.st.lastMaint.Inserts += d.Stats.DeltaInserts
					w.st.lastMaint.Deletes += d.Stats.DeltaDeletes
				}
			}
		}
		if w.st.vo != nil {
			w.st.vo.refreshHist(w.decision).ObserveDuration(w.computeDur + time.Since(t0))
			if w.d != nil {
				w.st.vo.computeWait.ObserveDuration(w.wait)
			}
		}
	}
	for i := range cands {
		if cands[i].w == nil {
			cands[i].installAway()
		}
	}
	// Per-tx subscriber notifications, transaction-major: subscribers
	// observe the same per-transaction alert stream the serial path
	// produces (batch mode only; a batch of one rode the w.d path).
	if batchMode {
		for _, r := range live {
			for _, w := range work3 {
				if !w.perTx {
					continue
				}
				if d := r.viewDeltas[w.st.name]; d != nil {
					ns = append(ns, w.st.notifications(w.st.name, d.Inserts, d.Deletes)...)
				}
			}
		}
	}

	// Per-request view counters follow each transaction's own touch
	// set, exactly as if it had committed alone.
	for _, r := range live {
		for _, w := range work3 {
			if !e.viewTouched(w.st, r.touched) {
				continue
			}
			if w.deferred {
				r.res.ViewsDeferred++
			} else {
				r.res.ViewsRefreshed++
			}
		}
		for i := range cands {
			if cands[i].w == nil && e.viewTouched(cands[i].st, r.touched) {
				r.res.ViewsRefreshed++
			}
		}
	}
	if se.span != nil {
		se.end(obs.KV{K: "views", V: len(work3)})
	} else {
		se.end()
	}

	se = ct.begin(stagePublish)
	if len(work) > 0 || len(work3) > 0 {
		e.publishLocked()
	}
	se.end()
	if wentStale {
		// A deferred view just started a backlog: wake the scheduler so
		// a MaxStaleness SLO deadline is planned against it immediately.
		e.sched.poke()
	}
	return ns, nil
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

// perTxViewDeltas computes r's differential deltas for every
// subscribed view it touches, against the overlay state BEFORE r
// applies. Indexes reflect the pre-group state, so the provider blanks
// them for relations already dirtied by earlier group members.
func (e *Engine) perTxViewDeltas(r *groupReq, updates []delta.Update,
	overlayInst func(*expr.Bound) []*relation.Relation, work map[string]*relation.Relation) error {
	for _, name := range e.viewOrder {
		st := e.views[name]
		if !perTxView(st) || !e.viewTouched(st, r.touched) {
			continue
		}
		dirty := make(map[string]bool, len(work))
		for rel := range work {
			dirty[rel] = true
		}
		d, err := st.maint.ComputeDeltaWith(overlayInst(st.bound), updates, batchProvider{e: e, dirty: dirty})
		if err != nil {
			return err
		}
		if r.viewDeltas == nil {
			r.viewDeltas = make(map[string]*diffeval.ViewDelta)
		}
		r.viewDeltas[name] = d
	}
	return nil
}

// batchProvider serves persistent indexes only for relations still at
// their pre-group state; relations already modified by earlier group
// members return nil (diffeval falls back to scans for them).
type batchProvider struct {
	e     *Engine
	dirty map[string]bool
}

func (p batchProvider) Index(rel string, pos int) *relation.Index {
	if p.dirty[rel] {
		return nil
	}
	return provider{e: p.e}.Index(rel, pos)
}
