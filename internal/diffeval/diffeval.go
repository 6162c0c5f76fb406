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
//     at least one delta slot are evaluated — at most 2^k − 1 rows for
//     k modified operands, exactly the paper's "build only those rows
//     of the table representing the necessary subexpressions".
//  3. Each row is a probe pipeline (indexed.go): every tuple of the
//     row's smallest delta slot walks the other operands one tuple at
//     a time, reaching an old slot through a persistent index where
//     one serves the link, else a transient hash table, and combining
//     tags by the §5.3 algebra (insert ⋈ delete → ignore). A row whose
//     tuples all fall out early is pruned.
//  4. Every surviving joint tuple is projected onto the view with its
//     §5.3 tag as a §5.2 count change: +1 for an insert, −1 for a
//     delete. Summed per tuple, these make the delta one sorted run of
//     signed counts, which Apply folds into the stored view's counters.
//
// The persistent indexes are the operand instances' own
// (relation.Relation.Index): every instance carries indexes that
// describe exactly its rows, so whatever state a computation reads —
// the pre-commit base, a clone a group member rewrote, the state a
// refresh rebuilt from its backlog, a snapshot — its old slots are
// probed, not rescanned. An IndexProvider, where a caller passes one,
// supplies the indexes instead.
//
// The same pipeline materializes a view (Materialize): §5.3's row in
// which one operand's whole instance is the delta, inserted into an
// empty view. It is the engine's only evaluator; internal/eval keeps an
// independent reference evaluator for tests.
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
	"mview/internal/expr"
	"mview/internal/irrelevance"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
)

// IndexProvider supplies persistent single-column hash indexes in
// place of the operand instances' own, for callers that keep indexes
// beside their relations (relation.BuildIndex). Index returns the index
// of relation rel on base-scheme column pos, or nil when none exists;
// it must describe the instance the computation reads.
type IndexProvider interface {
	Index(rel string, pos int) *relation.Index
}

// Options tunes a Maintainer.
type Options struct {
	// Filter enables the §4 irrelevance pre-filter on delta slots.
	Filter bool
	// FilterOptions configures the pre-filter when enabled.
	FilterOptions irrelevance.Options
}

// Stats describes the work done for one maintenance call.
type Stats struct {
	ModifiedOperands int // k: operands with a non-empty delta slot
	// RowsEvaluated counts truth-table rows carried to completion: of
	// the 2^k − 1 rows per conjunct, a row whose tuples all fall out
	// before its last step is pruned and not counted.
	RowsEvaluated int
	JoinSteps     int // pipeline steps some tuple reached
	IndexProbes   int // tuples probed against a persistent index
	// BaseRowsScanned counts old-slot tuples read by transient hash
	// builds and cross-product scans — base rows read because no index
	// served the step. Materialize counts every tuple it reads.
	BaseRowsScanned int
	FilterChecked   int // delta tuples examined by the irrelevance filter
	FilteredOut     int // delta tuples removed by the irrelevance filter
	DeltaInserts    int // distinct view tuples whose count rose
	DeltaDeletes    int // distinct view tuples whose count fell
}

// ViewDelta is the computed change to a materialized view: one run of
// view tuples sorted by tuple (relation.ByTuple), each with the signed
// change of its §5.2 counter — positive when the transaction gained
// derivations, negative when it lost them, never zero. A tuple whose
// gains and losses cancel is not in the run, so the run is the view's
// net change. A zero ViewDelta is empty.
type ViewDelta struct {
	Rows  []relation.CountedTuple
	Stats Stats
}

// Maintainer differentially maintains one bound view.
//
// Concurrency: after NewMaintainer returns, a Maintainer holds no
// mutable state of its own — conjunct info, compiled predicates and
// irrelevance checkers are immutable (checker stats are atomic), and
// every ComputeDelta/Materialize call builds its scratch state (the
// per-operand slots, the row pipelines) on the call stack.
// Concurrent calls on one Maintainer are therefore safe
// provided (a) Tracer is set before the first concurrent use and is
// itself concurrency-safe (the obs.Tracer contract), and (b) the
// operand instances and index provider passed in are not mutated
// during the call.
type Maintainer struct {
	bound *expr.Bound
	opts  Options
	conjs []conjInfo // resolved atom info per conjunct
	// where is the whole condition compiled against the joint scheme:
	// a joint tuple is counted under the first conjunct it satisfies.
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

// slot holds one operand's partition for the current call: the old
// slot is inst minus del, the delta slot ins plus del.
type slot struct {
	op       *expr.BoundOperand
	inst     *relation.Relation // pre-transaction instance
	ins, del *relation.Relation // net update; may be nil
	modified bool
	// whole marks a delta slot that is a whole base instance
	// (Materialize), so reading it reads base rows.
	whole bool
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

// slots pairs each operand with its instance, checking the schemes.
func (m *Maintainer) slots(insts []*relation.Relation) ([]*slot, error) {
	b := m.bound
	if len(insts) != len(b.Operands) {
		return nil, fmt.Errorf("diffeval: %d instances for %d operands", len(insts), len(b.Operands))
	}
	sl, slots := make([]*slot, len(b.Operands)), make([]slot, len(b.Operands))
	for i := range b.Operands {
		op := &b.Operands[i]
		if !insts[i].Scheme().Equal(op.Scheme) {
			return nil, fmt.Errorf("diffeval: instance %d has scheme %s, operand %q wants %s",
				i, insts[i].Scheme(), op.Alias, op.Scheme)
		}
		slots[i] = slot{op: op, inst: insts[i]}
		sl[i] = &slots[i]
	}
	return sl, nil
}

// ComputeDelta computes the view delta for a transaction, probing the
// instances' own indexes. See ComputeDeltaWith.
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
// base relations in place of the instances' own; an operand with no
// index is reached through a transient hash table.
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
// the filter verdicts itself. The old slots are probed through the
// instances' own indexes.
func (m *Maintainer) ComputeDeltaPerOperand(insts []*relation.Relation, perOp []delta.Update) (*ViewDelta, error) {
	if len(perOp) != len(m.bound.Operands) {
		return nil, fmt.Errorf("diffeval: %d operand updates for %d operands", len(perOp), len(m.bound.Operands))
	}
	return m.computeDelta(insts, perOp, nil, Stats{})
}

// computeDelta is the core both entries share: perOp holds each
// operand's net update after any filtering, filtered what the
// filtering counted.
func (m *Maintainer) computeDelta(insts []*relation.Relation, perOp []delta.Update, provider IndexProvider, filtered Stats) (*ViewDelta, error) {
	b := m.bound
	sl, err := m.slots(insts)
	if err != nil {
		return nil, err
	}
	d := &ViewDelta{Stats: filtered}
	stats := &d.Stats
	if m.Tracer != nil {
		span := m.Tracer.Start("diffeval.compute", obs.KV{K: "view", V: b.Name})
		defer func() {
			span.End(obs.KV{K: "rows", V: stats.RowsEvaluated},
				obs.KV{K: "join_steps", V: stats.JoinSteps},
				obs.KV{K: "inserts", V: stats.DeltaInserts},
				obs.KV{K: "deletes", V: stats.DeltaDeletes})
		}()
	}
	// Presize the run by the total delta size: the number of emitted
	// tuples is usually on the order of the touched tuples, and a close
	// guess turns the run's growth into one allocation.
	sizeHint := 0
	for i, s := range sl {
		u := perOp[i]
		if u.Rel == "" {
			continue
		}
		s.ins, s.del = u.Inserts, u.Deletes
		s.modified = s.deltaSize() > 0
		if s.modified {
			stats.ModifiedOperands++
		}
		sizeHint += s.deltaSize()
		if m.Tracer != nil {
			m.Tracer.Event("diffeval.operand_delta",
				obs.KV{K: "view", V: b.Name}, obs.KV{K: "operand", V: s.op.Alias},
				obs.KV{K: "rel", V: s.op.Rel}, obs.KV{K: "size", V: s.deltaSize()})
		}
	}
	if stats.ModifiedOperands > 0 {
		if d.Rows, err = m.streamRows(sl, stats, provider, nil, sizeHint); err != nil {
			return nil, err
		}
	}
	for _, r := range d.Rows {
		if r.Count > 0 {
			stats.DeltaInserts++
		} else {
			stats.DeltaDeletes++
		}
	}
	return d, nil
}

// Materialize computes the view from scratch over insts (one instance
// per operand, in operand order) as §5.3's single-delta truth-table
// row: the smallest operand supplies all of its tuples as inserts and
// every other operand is old, so the row's inserts are the whole view
// with its §5.2 counts, counted straight into the returned view.
// provider, when non-nil, supplies persistent indexes over insts in
// place of their own.
func (m *Maintainer) Materialize(insts []*relation.Relation, provider IndexProvider) (*relation.Counted, Stats, error) {
	sl, err := m.slots(insts)
	if err != nil {
		return nil, Stats{}, err
	}
	first := sl[0]
	for _, s := range sl[1:] {
		if s.inst.Len() < first.inst.Len() {
			first = s
		}
	}
	first.ins, first.modified, first.whole = first.inst, true, true
	stats := Stats{ModifiedOperands: 1}
	view := relation.NewCountedCap(m.deltaPS, first.inst.Len())
	if _, err := m.streamRows(sl, &stats, provider, view, 0); err != nil {
		return nil, stats, err
	}
	stats.DeltaInserts = view.Len()
	return view, stats, nil
}

// Validate reports whether Apply(view, d) would succeed, without
// mutating the view: every tuple of the run has the view's arity, and
// every negative count is covered by the view's current counter. An
// error indicates the delta was computed against a different view
// state — the §5.2 counters would go negative.
func Validate(view *relation.Counted, d *ViewDelta) error {
	arity := view.Scheme().Arity()
	for _, r := range d.Rows {
		if len(r.Tuple) != arity {
			return fmt.Errorf("diffeval: delta tuple %v does not match view scheme %s", r.Tuple, view.Scheme())
		}
		if r.Count < 0 {
			if have := view.Count(r.Tuple); have < -r.Count {
				return fmt.Errorf("diffeval: delta deletes %d × %v but only %d derivations exist", -r.Count, r.Tuple, have)
			}
		}
	}
	return nil
}

// Apply folds a computed delta into the stored view, adding each
// tuple's signed count to its counter. The delta is validated first
// (see Validate), so on error the view is unchanged — Apply is atomic
// per view. An error indicates the delta does not match the view state
// (for example, deleting a derivation the view does not hold).
func Apply(view *relation.Counted, d *ViewDelta) error {
	if err := Validate(view, d); err != nil {
		return err
	}
	return Fold(view, d)
}

// Fold is Apply for a delta Validate already accepted against this very
// view state: one counter update per tuple of the run and no re-check.
// An error means the delta was not validated against the view, which
// may then be half-folded.
func Fold(view *relation.Counted, d *ViewDelta) error {
	for _, r := range d.Rows {
		if err := view.Add(r.Tuple, r.Count); err != nil {
			return err
		}
	}
	return nil
}
