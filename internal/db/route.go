package db

// Cross-view routing of a commit's composed delta (§4, once per tuple).
//
// Every filtered view's §4 pre-filter used to run inside its own
// maintenance task, so V filtered views over one relation cost V tasks,
// V filtered copies of the update and V empty deltas per commit to
// conclude, almost always, "nothing to do". The pipeline now filters
// before it plans tasks: per base relation one irrelevance.Index covers
// every (filtered view, operand) checker reading it, and every delta a
// filtered view consumes — a commit's composed update, a refresh's
// backlog, a subscriber's per-transaction update — is routed through
// it, so a view gets a maintenance task, fed its already-filtered
// per-operand updates, only if some tuple reached it. A commit's view
// nothing reached costs no task, clone, delta or snapshot entry; its
// counters still advance (routedAway): a tuple kept away is a discard.

import (
	"sync/atomic"

	"mview/internal/delta"
	"mview/internal/diffeval"
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

// routeCand is one filtered view on its way through routing: a view a
// commit maintains, a deferred view a refresh drains, or a subscribed
// view's per-transaction delta. It is where every filter verdict the
// engine reports is counted.
type routeCand struct {
	st         *viewState
	touchCount int
	at         int            // the view's placeholder position in the run's work list
	in         []delta.Update // the updates routed to the view: a composed delta or a backlog
	// checked is the number of filter verdicts owed to the view: the
	// tuples of every touched relation, once per operand reading it.
	// passed is how many of them got through.
	checked, passed int
	// w is nil until a tuple reaches the view; such a view is then
	// maintained like any other differential view.
	w *refreshed
}

// newRouteCand makes st a routing candidate for the updates in.
func newRouteCand(st *viewState, touchCount, at int, in []delta.Update) routeCand {
	c := routeCand{st: st, touchCount: touchCount, at: at, in: in}
	for _, op := range st.bound.Operands {
		c.checked += updateOf(in, op.Rel).Size()
	}
	return c
}

// verdicts reports the candidate's filter verdicts with its delta, as
// the §4 pre-filter of a lone view would have.
func (c *routeCand) verdicts(d *diffeval.ViewDelta) {
	d.Stats.FilterChecked = c.checked
	d.Stats.FilteredOut = c.checked - c.passed
}

// routedAway accumulates what a view is owed by commits the relevance
// index kept wholly away from it: the transactions and the (empty)
// refresh still count, and every routed tuple is a §4 discard. The
// counters are shared by the live viewState and every published
// snapView and folded into ViewStats on read, so such a commit neither
// dirties nor reallocates the view's snapshot entry.
type routedAway struct {
	transactions, refreshes, filteredOut atomic.Int64
}

// addTo folds the counters into a copy of the view's stats.
func (a *routedAway) addTo(s ViewStats) ViewStats {
	s.Transactions += int(a.transactions.Load())
	s.Refreshes += int(a.refreshes.Load())
	s.FilteredOut += int(a.filteredOut.Load())
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
// maintenance over updates: its operand instances and each operand's
// update (none when updates is nil and routing fills them in). Callers
// hold the engine lock.
func (e *Engine) newDifferential(st *viewState, touchCount int, updates []delta.Update) *refreshed {
	w := &refreshed{
		st:         st,
		touchCount: touchCount,
		insts:      operandInstances(st.bound, nil, e.base),
		perOp:      make([]delta.Update, len(st.bound.Operands)),
		decision:   decisionLabel(st.cfg, PolicyDifferential),
	}
	for i, op := range st.bound.Operands {
		w.perOp[i] = updateOf(updates, op.Rel)
	}
	return w
}

// routeStats is what one run's routing did, for the maint span: tuples
// routed, full Theorem 4.1 tests run on index candidates, and views
// some tuple reached.
type routeStats struct {
	tuples, candidates, views int
}

// routeComposed routes composed, a net delta per relation, to cands,
// filtered views to be maintained differentially over it, and adds
// what it did to rs. A view some tuple reaches gets its refreshed entry
// (w), carrying the filtered per-operand updates; the others keep w
// nil. Callers hold the engine lock.
func (e *Engine) routeComposed(composed []delta.Update, cands []routeCand, rs *routeStats) error {
	if len(cands) == 0 {
		return nil
	}
	routes, err := e.relevanceRoutes()
	if err != nil {
		return err
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
			return err
		}
		rs.tuples += u.Size()
		rs.candidates += checks
		for _, h := range hits {
			tg := rr.targets[h.Checker]
			c := &cands[tg.st.routeSlot-1]
			if c.w == nil {
				c.w = e.newDifferential(c.st, c.touchCount, nil)
				c.w.routed = true
				rs.views++
			}
			c.w.perOp[tg.op] = h.Update
			c.passed += h.Update.Size()
		}
	}
	return nil
}

// installAway credits a view no tuple reached with what the commit
// owes it. Runs in commit phase 5, after the batch is durable.
func (c *routeCand) installAway() {
	st := c.st
	st.away.transactions.Add(int64(c.touchCount))
	st.away.refreshes.Add(1)
	st.away.filteredOut.Add(int64(c.checked))
	if st.vo != nil {
		st.vo.filterOut.Add(int64(c.checked))
		st.vo.refreshHist(decisionLabel(st.cfg, PolicyDifferential)).ObserveDuration(0)
	}
}
