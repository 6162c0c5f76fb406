// Package diffeval implements differential re-evaluation of
// materialized SPJ views — §5 of Blakeley, Larson & Tompa, culminating
// in Algorithm 5.1.
//
// Given the pre-transaction contents of the base relations and a
// transaction's net updates (i_r, d_r per relation), the maintainer
// computes the view delta without re-evaluating the view:
//
//  1. Every operand is split into two slots: the "old" slot (tuples
//     present at the latest materialization and surviving the
//     transaction, tagged old) and the "delta" slot (net inserts
//     tagged insert plus net deletes tagged delete). The slots
//     partition the operand, so the 2^p truth-table rows of §5.3 are
//     disjoint regions of the cross-product space and every derivation
//     is produced exactly once.
//  2. Rows in which every modified operand contributes its old slot
//     reduce to the current view and are skipped; only rows touching
//     at least one delta slot are evaluated — 2^k − 1 rows for k
//     modified operands, exactly the paper's "build only those rows of
//     the table representing the necessary subexpressions".
//  3. Each row is an SPJ expression evaluated with the §5.3 tag
//     algebra (insert ⋈ delete → ignore). Several strategies are
//     provided; see Strategy. The engine uses StrategyIndexedDelta,
//     which streams each delta tuple through index probes of the old
//     slots one tuple at a time.
//  4. Every derived joint tuple is projected with §5.2 counting into
//     insert and delete multisets, which Apply folds into the stored
//     view: v' = v ⊎ ins ⊖ del.
//
// An optional irrelevance pre-filter (§4, Algorithm 4.1) shrinks the
// delta slots before any join work: ComputeDeltaWith runs it per view,
// for callers maintaining a view on its own. The engine filters once
// for all views (internal/db route.go) and hands each view its routed
// updates through ComputeDeltaPerOperand, which takes them as given.
package diffeval

import (
	"fmt"
	"sync"

	"mview/internal/delta"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/irrelevance"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// IndexProvider supplies persistent single-column hash indexes over
// base relations (pre-transaction state). Index returns the index of
// relation rel on base-scheme column pos, or nil when none exists.
type IndexProvider interface {
	Index(rel string, pos int) *relation.Index
}

// Strategy selects how truth-table rows are evaluated.
type Strategy uint8

const (
	// StrategyAuto (default) uses StrategyIndexedDelta when an index
	// provider is supplied and StrategyPrefixShare otherwise.
	StrategyAuto Strategy = iota
	// StrategyPrefixShare enumerates rows depth-first along a fixed
	// operand order, computing every shared join prefix once and
	// pruning empty intermediates — the paper's closing observation
	// about re-using partial subexpressions across rows.
	StrategyPrefixShare
	// StrategyRowByRow evaluates every row independently with a fixed
	// operand order. It exists to quantify the value of prefix
	// sharing.
	StrategyRowByRow
	// StrategyRowByRowGreedy evaluates every row independently,
	// choosing a per-row greedy join order that starts from the
	// smallest slot. It exists to quantify the §5.3 join-ordering
	// observation.
	StrategyRowByRowGreedy
	// StrategyIndexedDelta evaluates each row as a probe pipeline:
	// every tuple of the row's smallest delta slot walks the other
	// operands one tuple at a time, reaching old slots by probing the
	// provider's persistent indexes, applying each residual atom as
	// soon as its variables are bound, and counting each surviving
	// joint tuple straight into the view delta — so maintenance work
	// scales with the delta, not the base relations. Requires an index
	// provider. An old operand the provider has no index for is
	// reached through one transient hash table per row and step, built
	// over its surviving tuples on a linking column; a cross product
	// scans it.
	StrategyIndexedDelta
)

// Options tunes a Maintainer.
type Options struct {
	Strategy Strategy
	// Filter enables the §4 irrelevance pre-filter on delta slots.
	Filter bool
	// FilterOptions configures the pre-filter when enabled.
	FilterOptions irrelevance.Options
}

// Stats describes the work done for one maintenance call.
type Stats struct {
	ModifiedOperands int // k: operands with a non-empty delta slot
	// RowsEvaluated counts truth-table rows carried to completion.
	// Row-by-row strategies evaluate exactly 2^k − 1 rows; the
	// prefix-sharing and indexed strategies prune rows whose
	// intermediates go empty and count only completed ones.
	RowsEvaluated int
	JoinSteps     int // join steps executed (indexed: steps some tuple reached)
	IndexProbes   int // tuples probed against a persistent index
	FilterChecked int // delta tuples examined by the irrelevance filter
	FilteredOut   int // delta tuples removed by the irrelevance filter
	DeltaInserts  int // distinct inserted view tuples
	DeltaDeletes  int // distinct deleted view tuples
}

// ViewDelta is the computed change to a materialized view.
type ViewDelta struct {
	Inserts *relation.Counted
	Deletes *relation.Counted
	Stats   Stats
}

// Maintainer differentially maintains one bound view.
//
// Concurrency: after NewMaintainer returns, a Maintainer holds no
// mutable state of its own — plans, conjunct info, compiled predicates
// and irrelevance checkers are immutable (checker stats are atomic),
// and every ComputeDelta/ComputeDeltaWith call builds its scratch state
// (the per-operand slots, the row pipelines) on the call stack.
// Concurrent ComputeDelta calls on one Maintainer are therefore safe
// provided (a) Tracer is set before the first concurrent use and is
// itself concurrency-safe (the obs.Tracer contract), and (b) the
// operand instances and index provider passed in are not mutated
// during the call.
type Maintainer struct {
	bound *expr.Bound
	opts  Options
	plans []*eval.Plan // fixed-order plan per conjunct
	conjs []conjInfo   // resolved atom info per conjunct (indexed path)
	// where is the whole condition compiled against the joint scheme:
	// the indexed path counts a joint tuple under the first conjunct it
	// satisfies.
	where *pred.Program

	// checkers holds the view's one §4 checker per operand (see
	// Checker): all built by NewMaintainer when Options.Filter is set,
	// otherwise on first request. ckMu guards the slice.
	ckMu     sync.Mutex
	checkers []*irrelevance.Checker

	// Tracer, when non-nil, receives a span per ComputeDelta call plus
	// one diffeval.operand_delta event per modified operand. Callers
	// that share the maintainer across goroutines must set it before
	// concurrent use (the engine sets it under its own lock).
	Tracer obs.Tracer

	// deltaPos/deltaPS is the precomputed Joint→Project split plan:
	// every commit ends by projecting the joint delta onto the view
	// scheme, so the two derived schemes are built once, not per
	// transaction.
	deltaPos []int
	deltaPS  *schema.Scheme
}

// NewMaintainer prepares a maintainer for the bound view.
func NewMaintainer(b *expr.Bound, opts Options) (*Maintainer, error) {
	m := &Maintainer{bound: b, opts: opts}
	var err error
	if m.where, err = b.Where.CompileProgram(b.Joint); err != nil {
		return nil, err
	}
	if m.deltaPos, err = b.Joint.Positions(b.Project); err != nil {
		return nil, err
	}
	if m.deltaPS, err = b.Joint.Project(b.Project); err != nil {
		return nil, err
	}
	for _, conj := range b.Where.Conjuncts {
		p, err := eval.BuildPlan(b, conj, nil)
		if err != nil {
			return nil, err
		}
		m.plans = append(m.plans, p)
		ci, err := resolveConj(b, conj)
		if err != nil {
			return nil, err
		}
		m.conjs = append(m.conjs, ci)
	}
	m.checkers = make([]*irrelevance.Checker, len(b.Operands))
	if opts.Filter {
		for i := range b.Operands {
			if _, err := m.Checker(i); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// Checker returns the §4 irrelevance checker for operand opIdx,
// prepared with Options.FilterOptions. It is the only checker the view
// has for that operand: the maintainer's own pre-filter, the engine's
// relevance index and its Relevant API all borrow this one, so the O(n³) invariant closure is built once.
func (m *Maintainer) Checker(opIdx int) (*irrelevance.Checker, error) {
	if opIdx < 0 || opIdx >= len(m.checkers) {
		return nil, fmt.Errorf("diffeval: operand index %d out of range", opIdx)
	}
	m.ckMu.Lock()
	defer m.ckMu.Unlock()
	if m.checkers[opIdx] == nil {
		c, err := irrelevance.NewChecker(m.bound, opIdx, m.opts.FilterOptions)
		if err != nil {
			return nil, err
		}
		m.checkers[opIdx] = c
	}
	return m.checkers[opIdx], nil
}

// Bound returns the maintained view definition.
func (m *Maintainer) Bound() *expr.Bound { return m.bound }

// EmptyDelta returns a zero-change ViewDelta for the maintained view,
// for a refresh whose backlog the §4 routing emptied.
func (m *Maintainer) EmptyDelta() *ViewDelta {
	return &ViewDelta{
		Inserts: relation.NewCounted(m.deltaPS),
		Deletes: relation.NewCounted(m.deltaPS),
	}
}

// slot holds one operand's partition for the current transaction. The
// indexed strategy reads ins, del and inst directly; the Tagged forms
// the other strategies join are built lazily, once per call.
type slot struct {
	op       *expr.BoundOperand
	inst     *relation.Relation // pre-transaction instance
	ins, del *relation.Relation // net update; may be nil
	modified bool

	oldT   *relation.Tagged // lazy: surviving old tuples, tagged old
	deltaT *relation.Tagged // lazy: inserts + deletes, tagged
}

func (s *slot) old() (*relation.Tagged, error) {
	if s.oldT != nil {
		return s.oldT, nil
	}
	surviving := s.inst
	if s.del != nil && s.del.Len() > 0 {
		sv, err := relation.Diff(s.inst, s.del)
		if err != nil {
			return nil, err
		}
		surviving = sv
	}
	g, err := relation.TagRelationAs(surviving, s.op.QScheme, tuple.TagOld)
	if err != nil {
		return nil, err
	}
	s.oldT = g
	return g, nil
}

func (s *slot) deltaSize() int {
	n := 0
	if s.ins != nil {
		n += s.ins.Len()
	}
	if s.del != nil {
		n += s.del.Len()
	}
	return n
}

func (s *slot) deltaTagged() (*relation.Tagged, error) {
	if s.deltaT != nil {
		return s.deltaT, nil
	}
	g := relation.NewTaggedCap(s.op.QScheme, s.deltaSize())
	if s.ins != nil {
		if err := g.MergeRelation(s.ins, tuple.TagInsert); err != nil {
			return nil, err
		}
	}
	if s.del != nil {
		if err := g.MergeRelation(s.del, tuple.TagDelete); err != nil {
			return nil, err
		}
	}
	s.deltaT = g
	return g, nil
}

// ComputeDelta computes the view delta for a transaction without
// persistent indexes. See ComputeDeltaWith.
func (m *Maintainer) ComputeDelta(insts []*relation.Relation, updates []delta.Update) (*ViewDelta, error) {
	return m.ComputeDeltaWith(insts, updates, nil)
}

// ComputeDeltaWith computes the view delta for a transaction.
//
// insts are the PRE-transaction instances of the operands (one per
// operand, in operand order); updates are the transaction's net
// effects keyed by base relation name (an update applies to every
// operand referencing that relation, so self-joins work). provider,
// when non-nil, supplies persistent indexes over the PRE-transaction
// base relations for the indexed strategy.
func (m *Maintainer) ComputeDeltaWith(insts []*relation.Relation, updates []delta.Update, provider IndexProvider) (*ViewDelta, error) {
	byRel := make(map[string]delta.Update, len(updates))
	for _, u := range updates {
		if _, dup := byRel[u.Rel]; dup {
			return nil, fmt.Errorf("diffeval: multiple updates for relation %q", u.Rel)
		}
		byRel[u.Rel] = u
	}
	var stats Stats
	perOp := make([]delta.Update, len(m.bound.Operands))
	for i := range perOp {
		u, touched := byRel[m.bound.Operands[i].Rel]
		if !touched {
			continue
		}
		if m.opts.Filter {
			ck, err := m.Checker(i)
			if err != nil {
				return nil, err
			}
			before := u.Size()
			if u, err = ck.FilterUpdate(u); err != nil {
				return nil, err
			}
			stats.FilterChecked += before
			stats.FilteredOut += before - u.Size()
		}
		perOp[i] = u
	}
	return m.computeDelta(insts, perOp, provider, stats)
}

// ComputeDeltaPerOperand is ComputeDeltaWith for a caller that has
// already resolved the transaction per operand: perOp[i] is operand
// i's net update (Rel empty when the operand is untouched) and is
// taken as given — the §4 pre-filter neither runs nor counts here, so
// a caller that routed the update through a relevance index reports
// the filter verdicts itself.
func (m *Maintainer) ComputeDeltaPerOperand(insts []*relation.Relation, perOp []delta.Update, provider IndexProvider) (*ViewDelta, error) {
	if len(perOp) != len(m.bound.Operands) {
		return nil, fmt.Errorf("diffeval: %d operand updates for %d operands", len(perOp), len(m.bound.Operands))
	}
	return m.computeDelta(insts, perOp, provider, Stats{})
}

// computeDelta is the core both entries share: perOp holds each
// operand's net update after any filtering, stats what the filtering
// counted.
func (m *Maintainer) computeDelta(insts []*relation.Relation, perOp []delta.Update, provider IndexProvider, stats Stats) (*ViewDelta, error) {
	b := m.bound
	if len(insts) != len(b.Operands) {
		return nil, fmt.Errorf("diffeval: %d instances for %d operands", len(insts), len(b.Operands))
	}
	strategy := m.opts.Strategy
	if strategy == StrategyAuto {
		if provider != nil {
			strategy = StrategyIndexedDelta
		} else {
			strategy = StrategyPrefixShare
		}
	}
	if strategy == StrategyIndexedDelta && provider == nil {
		return nil, fmt.Errorf("diffeval: StrategyIndexedDelta requires an index provider")
	}

	if m.Tracer != nil {
		span := m.Tracer.Start("diffeval.compute", obs.KV{K: "view", V: b.Name})
		defer func() {
			span.End(obs.KV{K: "rows", V: stats.RowsEvaluated},
				obs.KV{K: "join_steps", V: stats.JoinSteps},
				obs.KV{K: "inserts", V: stats.DeltaInserts},
				obs.KV{K: "deletes", V: stats.DeltaDeletes})
		}()
	}
	sl := make([]*slot, len(b.Operands))
	for i := range b.Operands {
		op := &b.Operands[i]
		inst := insts[i]
		if !inst.Scheme().Equal(op.Scheme) {
			return nil, fmt.Errorf("diffeval: instance %d has scheme %s, operand %q wants %s",
				i, inst.Scheme(), op.Alias, op.Scheme)
		}
		s := &slot{op: op, inst: inst}
		if u := perOp[i]; u.Rel != "" {
			s.ins, s.del = u.Inserts, u.Deletes
			s.modified = s.deltaSize() > 0
			if s.modified {
				stats.ModifiedOperands++
			}
			if m.Tracer != nil {
				m.Tracer.Event("diffeval.operand_delta",
					obs.KV{K: "view", V: b.Name}, obs.KV{K: "operand", V: op.Alias},
					obs.KV{K: "rel", V: op.Rel}, obs.KV{K: "size", V: s.deltaSize()})
			}
		}
		sl[i] = s
	}

	// Presize the outputs by the total delta size: the number of result
	// rows is usually on the order of the touched tuples, and a close
	// guess turns the per-row map growth into one allocation.
	sizeHint := 0
	for _, s := range sl {
		sizeHint += s.deltaSize()
	}
	var ins, del *relation.Counted
	var err error
	switch strategy {
	case StrategyIndexedDelta:
		ins, del = relation.NewCountedCap(m.deltaPS, sizeHint), relation.NewCountedCap(m.deltaPS, sizeHint)
		if stats.ModifiedOperands > 0 {
			err = m.streamRows(sl, &stats, provider, ins, del)
		}
	default:
		out := relation.NewTaggedCap(b.Joint, sizeHint)
		switch {
		case stats.ModifiedOperands == 0:
		case strategy == StrategyRowByRow || strategy == StrategyRowByRowGreedy:
			err = m.runRows(sl, out, &stats, strategy == StrategyRowByRowGreedy)
		default:
			err = m.runPrefixShare(sl, out, &stats)
		}
		if err == nil {
			ins, del, err = out.DeltasPlanned(m.deltaPos, m.deltaPS)
		}
	}
	if err != nil {
		return nil, err
	}
	stats.DeltaInserts = ins.Len()
	stats.DeltaDeletes = del.Len()
	return &ViewDelta{Inserts: ins, Deletes: del, Stats: stats}, nil
}

// runPrefixShare enumerates the non-all-old truth-table rows
// depth-first along each plan's operand order, sharing join prefixes
// and pruning empty intermediates.
func (m *Maintainer) runPrefixShare(sl []*slot, out *relation.Tagged, stats *Stats) error {
	for _, p := range m.plans {
		// suffixHasDelta[d] reports whether any operand consumed at
		// step ≥ d is modified; an all-old prefix with no modified
		// operand left below it can only reach the all-old row and is
		// pruned before any scan or join work.
		suffixHasDelta := make([]bool, p.Steps()+1)
		for d := p.Steps() - 1; d >= 0; d-- {
			suffixHasDelta[d] = suffixHasDelta[d+1] || sl[p.OperandAt(d)].modified
		}
		var rec func(cur *relation.Tagged, depth int, anyDelta bool) error
		rec = func(cur *relation.Tagged, depth int, anyDelta bool) error {
			if depth > 0 && cur.Len() == 0 {
				return nil // empty prefix: no row below can contribute
			}
			if depth == p.Steps() {
				stats.RowsEvaluated++
				res, err := p.Finish(cur)
				if err != nil {
					return err
				}
				return out.Merge(res)
			}
			opIdx := p.OperandAt(depth)
			step := func(isDelta bool) error {
				nextAny := anyDelta || isDelta
				// Prune before any scan or join work: a prefix that
				// has seen no delta and has none below can only reach
				// the all-old row, which is the current view.
				if !nextAny && !suffixHasDelta[depth+1] {
					return nil
				}
				var inst *relation.Tagged
				var err error
				if isDelta {
					inst, err = sl[opIdx].deltaTagged()
				} else {
					inst, err = sl[opIdx].old()
				}
				if err != nil {
					return err
				}
				var next *relation.Tagged
				if depth == 0 {
					next = p.Scan(inst)
				} else {
					stats.JoinSteps++
					next, err = p.RunStep(cur, depth, inst)
					if err != nil {
						return err
					}
				}
				return rec(next, depth+1, nextAny)
			}
			if err := step(false); err != nil {
				return err
			}
			if sl[opIdx].modified {
				if err := step(true); err != nil {
					return err
				}
			}
			return nil
		}
		if err := rec(nil, 0, false); err != nil {
			return err
		}
	}
	return nil
}

// runRows evaluates each truth-table row independently (the ablation
// baseline for prefix sharing and for greedy per-row ordering).
func (m *Maintainer) runRows(sl []*slot, out *relation.Tagged, stats *Stats, greedy bool) error {
	var modified []int
	for i := range sl {
		if sl[i].modified {
			modified = append(modified, i)
		}
	}
	k := len(modified)
	for mask := 1; mask < 1<<k; mask++ {
		insts := make([]*relation.Tagged, len(sl))
		for i := range sl {
			g, err := sl[i].old()
			if err != nil {
				return err
			}
			insts[i] = g
		}
		for bit, opIdx := range modified {
			if mask&(1<<bit) != 0 {
				g, err := sl[opIdx].deltaTagged()
				if err != nil {
					return err
				}
				insts[opIdx] = g
			}
		}
		stats.RowsEvaluated++
		for ci, conj := range m.bound.Where.Conjuncts {
			var p *eval.Plan
			if greedy {
				sizes := make([]int, len(insts))
				for i, g := range insts {
					sizes[i] = g.Len()
				}
				var err error
				p, err = eval.BuildPlan(m.bound, conj, eval.GreedyOrder(m.bound, conj, sizes))
				if err != nil {
					return err
				}
			} else {
				p = m.plans[ci]
			}
			stats.JoinSteps += p.Steps() - 1
			res, err := p.Run(insts)
			if err != nil {
				return err
			}
			if err := out.Merge(res); err != nil {
				return err
			}
		}
	}
	return nil
}

// Validate reports whether Apply(view, d) would succeed, without
// mutating the view. A delta folds cleanly iff the schemes line up and
// every deleted derivation is covered by the view's current counter
// plus the delta's own inserts (Merge runs before Subtract, so inserts
// may fund deletes of the same tuple). An error indicates the delta
// was computed against a different view state — the §5.2 counters
// would go negative.
func Validate(view *relation.Counted, d *ViewDelta) error {
	if !view.Scheme().Equal(d.Inserts.Scheme()) || !view.Scheme().Equal(d.Deletes.Scheme()) {
		return fmt.Errorf("diffeval: delta schemes (%s ⊎ / %s ⊖) do not match view scheme %s",
			d.Inserts.Scheme(), d.Deletes.Scheme(), view.Scheme())
	}
	var err error
	d.Deletes.Each(func(t tuple.Tuple, n int64) {
		if err != nil {
			return
		}
		if avail := view.Count(t) + d.Inserts.Count(t); avail < n {
			err = fmt.Errorf("diffeval: delta deletes %d × %v but only %d derivations exist", n, t, avail)
		}
	})
	return err
}

// Apply folds a computed delta into the stored view:
// v' = v ⊎ inserts ⊖ deletes. The delta is validated first (see
// Validate), so on error the view is unchanged — Apply is atomic per
// view. An error indicates the delta does not match the view state
// (for example, deleting a derivation the view does not hold).
func Apply(view *relation.Counted, d *ViewDelta) error {
	if err := Validate(view, d); err != nil {
		return err
	}
	// Validate proved both folds succeed: schemes match and no counter
	// can go negative.
	if err := view.Merge(d.Inserts); err != nil {
		return err
	}
	return view.Subtract(d.Deletes)
}

// SelectViewDelta is the specialized §5.1 path for single-operand
// select views (and select-project views): the view delta is simply
// π(σ_C(i_r)) and π(σ_C(d_r)). It is equivalent to ComputeDelta for
// p = 1 and exists to state the paper's formula directly.
func SelectViewDelta(b *expr.Bound, u delta.Update) (*ViewDelta, error) {
	if len(b.Operands) != 1 {
		return nil, fmt.Errorf("diffeval: SelectViewDelta on a %d-operand view", len(b.Operands))
	}
	op := b.Operands[0]
	f, err := b.Where.Compile(op.QScheme)
	if err != nil {
		return nil, err
	}
	project := func(r *relation.Relation) (*relation.Counted, error) {
		if r == nil {
			return relation.NewCounted(mustOut(b)), nil
		}
		g, err := relation.TagRelationAs(r, op.QScheme, tuple.TagOld)
		if err != nil {
			return nil, err
		}
		return relation.SelectTagged(g, f).CountAll(b.Project)
	}
	ins, err := project(u.Inserts)
	if err != nil {
		return nil, err
	}
	del, err := project(u.Deletes)
	if err != nil {
		return nil, err
	}
	return &ViewDelta{
		Inserts: ins,
		Deletes: del,
		Stats:   Stats{ModifiedOperands: 1, RowsEvaluated: 1, DeltaInserts: ins.Len(), DeltaDeletes: del.Len()},
	}, nil
}

func mustOut(b *expr.Bound) *schema.Scheme {
	s, err := b.OutScheme()
	if err != nil {
		panic(err) // unreachable: Bind validated the projection
	}
	return s
}
