package db

// Cross-view routing of a commit's composed delta (§4, once per tuple).
//
// Every filtered view's §4 pre-filter used to run inside its own
// maintenance task, so V filtered views over one relation cost V tasks,
// V filtered copies of the update and V empty deltas per commit to
// conclude, almost always, "nothing to do". The commit pipeline now
// filters before it plans tasks: per base relation one
// irrelevance.Index covers every (filtered view, operand) checker
// reading it, the composed update is routed through it once, and a view
// gets a maintenance task — fed its already-filtered per-operand
// updates — only if some tuple reached it. A view nothing reached costs
// no task, no clone, no delta and no snapshot entry; its counters still
// advance (routedAway), because a tuple the index keeps away from a
// view is a discard verdict for that view like any other.

import (
	"sync/atomic"

	"mview/internal/delta"
	"mview/internal/irrelevance"
)

// relRoute is the relevance index over one base relation: targets[i]
// is the (view, operand) whose checker is the index's checker i.
type relRoute struct {
	ix      *irrelevance.Index
	targets []routeTarget
	// skip is Route's mask of targets whose view is not being routed by
	// the current commit; reused across commits under the engine lock.
	skip []bool
}

type routeTarget struct {
	st *viewState
	op int
}

// routeCand is one filtered immediate view touched by the commit, on
// its way through routing.
type routeCand struct {
	st         *viewState
	touchCount int
	at         int // the view's placeholder position in the commit's work list
	// checked is the number of filter verdicts the commit owes the view:
	// the composed tuples of every touched relation, once per operand
	// reading it. passed is how many of them got through.
	checked, passed int
	shardsPruned    int
	// w is nil until a tuple reaches the view; such a view is then
	// maintained like any other differential view.
	w *refreshed
}

// routedAway accumulates what a view is owed by commits the relevance
// index kept wholly away from it: the transactions and the (empty)
// refresh still count, and every routed tuple is a §4 discard. The
// counters are shared by the live viewState and every published
// snapView and folded into ViewStats on read, so such a commit neither
// dirties nor reallocates the view's snapshot entry.
type routedAway struct {
	transactions, refreshes, filteredOut, shardsPruned atomic.Int64
}

// addTo folds the counters into a copy of the view's stats.
func (a *routedAway) addTo(s ViewStats) ViewStats {
	s.Transactions += int(a.transactions.Load())
	s.Refreshes += int(a.refreshes.Load())
	s.FilteredOut += int(a.filteredOut.Load())
	s.ShardsPruned += int(a.shardsPruned.Load())
	return s
}

// relevanceRoutes returns the per-relation relevance indexes, building
// them on the first commit after view DDL (CreateView and DropView
// reset e.routes). Relations no filtered view reads have no entry.
// Callers hold the engine lock.
func (e *Engine) relevanceRoutes() (map[string]*relRoute, error) {
	if e.routes != nil {
		return e.routes, nil
	}
	targets := make(map[string][]routeTarget)
	for _, name := range e.viewOrder {
		st := e.views[name]
		if !st.cfg.Maint.Filter {
			continue
		}
		for i, op := range st.bound.Operands {
			targets[op.Rel] = append(targets[op.Rel], routeTarget{st: st, op: i})
		}
	}
	routes := make(map[string]*relRoute, len(targets))
	for rel, tgs := range targets {
		cks := make([]*irrelevance.Checker, len(tgs))
		for i, tg := range tgs {
			ck, err := tg.st.maint.Checker(tg.op)
			if err != nil {
				return nil, err
			}
			cks[i] = ck
		}
		ix, err := irrelevance.NewIndex(cks)
		if err != nil {
			return nil, err
		}
		routes[rel] = &relRoute{ix: ix, targets: tgs, skip: make([]bool, len(tgs))}
	}
	e.routes = routes
	return routes, nil
}

// newDifferential starts a view's passage through differential
// maintenance: its operand instances and an empty per-operand update
// list for the caller to fill. Callers hold the engine lock.
func (e *Engine) newDifferential(st *viewState, touchCount int) *refreshed {
	return &refreshed{
		st:         st,
		touchCount: touchCount,
		insts:      e.operandInstances(st.bound),
		perOp:      make([]delta.Update, len(st.bound.Operands)),
		decision:   decisionLabel(st.cfg, PolicyDifferential),
	}
}

// routeStats is what one commit's routing did, for the commit.maint
// span: tuples routed, full Theorem 4.1 tests run on index candidates,
// and views some tuple reached.
type routeStats struct {
	tuples, candidates, views int
}

// routeComposed routes the commit's composed delta to cands, the
// filtered views classified for differential maintenance. A view some
// tuple reaches gets its refreshed entry (w), carrying the filtered
// per-operand updates; the others keep w nil. Callers hold the engine
// lock.
func (e *Engine) routeComposed(composed []delta.Update, cands []routeCand) (routeStats, error) {
	var rs routeStats
	routes, err := e.relevanceRoutes()
	if err != nil {
		return rs, err
	}
	for i := range cands {
		cands[i].st.routeSlot = i + 1
	}
	defer func() {
		for i := range cands {
			cands[i].st.routeSlot = 0
		}
	}()
	for _, u := range composed {
		rr := routes[u.Rel]
		if rr == nil {
			continue
		}
		for i, tg := range rr.targets {
			rr.skip[i] = tg.st.routeSlot == 0
		}
		hits, checks, err := rr.ix.Route(u, rr.skip)
		if err != nil {
			return rs, err
		}
		rs.tuples += u.Size()
		rs.candidates += checks
		for _, h := range hits {
			tg := rr.targets[h.Checker]
			c := &cands[tg.st.routeSlot-1]
			if c.w == nil {
				c.w = e.newDifferential(c.st, c.touchCount)
				c.w.routed = true
				rs.views++
			}
			c.w.perOp[tg.op] = h.Update
			c.passed += h.Update.Size()
		}
	}
	return rs, nil
}

// installAway credits a view no tuple reached with what the commit
// owes it. Runs in commit phase 5, after the batch is durable.
func (c *routeCand) installAway() {
	st := c.st
	st.away.transactions.Add(int64(c.touchCount))
	st.away.refreshes.Add(1)
	st.away.filteredOut.Add(int64(c.checked))
	st.away.shardsPruned.Add(int64(c.shardsPruned))
	if st.vo != nil {
		st.vo.filterOut.Add(int64(c.checked))
		st.vo.shardPruned.Add(int64(c.shardsPruned))
		st.vo.refreshHist(decisionLabel(st.cfg, PolicyDifferential)).ObserveDuration(0)
	}
}
