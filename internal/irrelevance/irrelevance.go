// Package irrelevance implements §4 of Blakeley, Larson & Tompa: the
// detection of base relation updates that cannot affect a view in any
// database state.
//
// By Theorem 4.1, inserting or deleting a tuple t into operand r_i of
// view v = π_X(σ_C(r_1 × … × r_p)) is irrelevant to v — for every
// database instance — iff the substituted condition C(t, Y2) is
// unsatisfiable. Satisfiability is decided on the Rosenkrantz–Hunt
// constraint graph (package satgraph). A Checker prepares, once per
// (view, operand) pair, the invariant portion of each conjunct's graph
// (Algorithm 4.1); testing a tuple then costs only the substitution
// plus an O(k²) probe of the prepared closure.
//
// Conditions containing ≠ fall outside the efficiently decidable
// class. The Checker first tries the exact DNF expansion of ≠ atoms
// (bounded by Options.NELimit); if the bound is exceeded it degrades
// to the sound, conservative answer "relevant".
package irrelevance

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// Options tunes a Checker.
type Options struct {
	// Method selects the negative-cycle detector. The zero value is
	// the paper's Floyd; satgraph.MethodAdaptive (the engine default
	// via buildConfig) resolves per conjunction size — Floyd below
	// satgraph.AdaptiveSatThreshold variables, Bellman–Ford above.
	Method satgraph.Method
	// NELimit caps the DNF expansion of ≠ atoms (0 means 64). When an
	// expansion would exceed the cap the checker becomes conservative
	// for the affected conjuncts: it reports every update relevant.
	NELimit int
}

// preparedConj is one ≠-free conjunct of the view condition split per
// Algorithm 4.1 relative to the checked operand's attributes (Y1).
//
// The per-tuple test never touches the atom lists: vEval is compiled
// once into a position-resolved program (prog), and each vNonEval atom
// into a nonEvalTemplate, so Relevant does no AST walk, name lookup,
// or Binding-closure construction per tuple. The atom slices are kept
// only for the naive comparator (RelevantNaive).
type preparedConj struct {
	vEval    []pred.Atom // variant evaluable: ground after substitution
	vNonEval []pred.Atom // variant non-evaluable: substitute, then probe
	prog     *pred.Program
	tmpls    []nonEvalTemplate
	prep     *satgraph.Prepared
}

// nonEvalTemplate is one variant non-evaluable atom resolved to tuple
// positions at prepare time. Substituting tuple t leaves the residual
// (v op c') with c' = t[pos] − C (bound variable on the left, operator
// flipped) or c' = t[pos] + C (bound on the right); the constant folds
// with saturating arithmetic, matching pred.SubstituteAtom.
type nonEvalTemplate struct {
	v   pred.Var
	op  pred.Op
	pos int
	sub bool // fold as t[pos] − C instead of t[pos] + C
	c   int64
}

// Checker decides relevance of single-tuple updates against one
// operand of a bound view.
//
// After NewChecker returns, the prepared state is immutable; the only
// mutation Relevant and the Filter* methods perform is on the atomic
// stats counters, so a Checker is safe for concurrent use. The engine
// relies on this when maintenance of independent views runs on a
// worker pool.
type Checker struct {
	bound *expr.Bound
	opIdx int
	opts  Options

	conjs []preparedConj
	// conservative is set when the condition could not be brought into
	// the decidable class; every update is then reported relevant.
	conservative bool

	// stats (atomic: Relevant may be called from concurrent
	// maintenance workers)
	tested, irrelevant atomic.Int64

	// where is the view condition with ≠ atoms expanded (unset when
	// conservative): the DNF conjs was prepared from.
	where pred.DNF

	// full caches the full-conjunct closures behind the relevance
	// index's hulls; built on first use.
	fullOnce sync.Once
	full     *fullPrep
}

// NewChecker prepares an irrelevance checker for updates to operand
// opIdx of the bound view.
func NewChecker(b *expr.Bound, opIdx int, opts Options) (*Checker, error) {
	if opIdx < 0 || opIdx >= len(b.Operands) {
		return nil, fmt.Errorf("irrelevance: operand index %d out of range", opIdx)
	}
	if opts.NELimit <= 0 {
		opts.NELimit = 64
	}
	c := &Checker{bound: b, opIdx: opIdx, opts: opts}

	where := b.Where
	if where.HasNE() {
		expanded, err := pred.ExpandNEDNF(where, opts.NELimit)
		if err != nil {
			c.conservative = true
			return c, nil
		}
		where = expanded
	}
	c.where = where

	q := b.Operands[opIdx].QScheme
	inY1 := func(v pred.Var) bool { return q.Has(schema.Attribute(v)) }
	for _, conj := range where.Conjuncts {
		inv, vEval, vNonEval := conj.Split(inY1)
		cons, err := pred.NormalizeConjunction(pred.And(inv...))
		if err != nil {
			// Unreachable after NE expansion; degrade safely.
			c.conservative = true
			return c, nil
		}
		prep, err := satgraph.Prepare(cons, conj.Vars())
		if err != nil {
			return nil, err
		}
		prog, err := pred.CompileAtoms(vEval, q)
		if err != nil {
			return nil, err
		}
		tmpls := make([]nonEvalTemplate, 0, len(vNonEval))
		for _, a := range vNonEval {
			if p, ok := q.Pos(schema.Attribute(a.Left)); ok {
				tmpls = append(tmpls, nonEvalTemplate{v: a.Right, op: a.Op.Flip(), pos: p, sub: true, c: a.C})
			} else if p, ok := q.Pos(schema.Attribute(a.Right)); ok {
				tmpls = append(tmpls, nonEvalTemplate{v: a.Left, op: a.Op, pos: p, sub: false, c: a.C})
			} else {
				return nil, fmt.Errorf("irrelevance: atom %q classified variant but binds no attribute of %s", a, q)
			}
		}
		c.conjs = append(c.conjs, preparedConj{
			vEval: vEval, vNonEval: vNonEval,
			prog: prog, tmpls: tmpls, prep: prep,
		})
	}
	return c, nil
}

// Conservative reports whether the checker degraded to always-relevant
// (condition outside the decidable class).
func (c *Checker) Conservative() bool { return c.conservative }

// Relevant applies Theorem 4.1 to a single inserted or deleted tuple:
// it returns false exactly when the update provably cannot affect the
// view in any database state. The same test covers insertions and
// deletions (§4).
func (c *Checker) Relevant(t tuple.Tuple) (bool, error) {
	c.tested.Add(1)
	if c.conservative {
		return true, nil
	}
	q := c.bound.Operands[c.opIdx].QScheme
	if len(t) != q.Arity() {
		return false, fmt.Errorf("irrelevance: tuple %v has arity %d, operand %q has arity %d",
			t, len(t), c.bound.Operands[c.opIdx].Alias, q.Arity())
	}
	for i := range c.conjs {
		ok, err := c.conjSatisfiable(&c.conjs[i], t)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	c.irrelevant.Add(1)
	return false, nil
}

func (c *Checker) conjSatisfiable(pc *preparedConj, t tuple.Tuple) (bool, error) {
	if pc.prep.InvariantUnsatisfiable() {
		return false, nil
	}
	// Variant evaluable atoms are ground after substitution: one pass
	// of the compiled program, no AST walk or binding closure.
	if !pc.prog.Eval(t) {
		return false, nil
	}
	// Variant non-evaluable atoms become var-vs-constant bounds; fold
	// each template's constant and normalize into a per-call buffer
	// (Relevant runs on concurrent maintenance workers).
	var consBuf [8]pred.Constraint
	cons := consBuf[:0]
	for i := range pc.tmpls {
		te := &pc.tmpls[i]
		cv := t[te.pos]
		if te.sub {
			cv = pred.SubSat(cv, te.c)
		} else {
			cv = pred.AddSat(cv, te.c)
		}
		var err error
		cons, err = pred.AppendNormalize(cons, pred.VarConst(te.v, te.op, cv))
		if err != nil {
			return false, err
		}
	}
	return pc.prep.SatisfiableWith(cons)
}

// RelevantNaive re-derives the Theorem 4.1 verdict by building a fresh
// constraint graph per tuple (no prepared invariant closure). It
// exists to quantify Algorithm 4.1's reuse: benchmarks compare it
// against Relevant.
func (c *Checker) RelevantNaive(t tuple.Tuple) (bool, error) {
	if c.conservative {
		return true, nil
	}
	q := c.bound.Operands[c.opIdx].QScheme
	bind := pred.BindTuple(q, t)
	for i := range c.conjs {
		pc := &c.conjs[i]
		var all []pred.Atom
		all = append(all, pc.vEval...)
		all = append(all, pc.vNonEval...)
		residual, ok := pred.And(all...).Substitute(bind)
		if !ok {
			continue
		}
		// Rebuild invariant + residual from scratch.
		conj := pred.Conjunction{Atoms: residual.Atoms}
		g := satgraph.NewGraph()
		if err := g.AddConjunction(conj); err != nil {
			return false, err
		}
		if err := g.AddConjunction(pred.And(c.invariantAtoms(i)...)); err != nil {
			return false, err
		}
		if g.Satisfiable(c.opts.Method) {
			return true, nil
		}
	}
	return false, nil
}

// invariantAtoms reconstructs the invariant atom list for conjunct i
// (only used by the naive path; the fast path keeps the closure).
func (c *Checker) invariantAtoms(i int) []pred.Atom {
	q := c.bound.Operands[c.opIdx].QScheme
	inY1 := func(v pred.Var) bool { return q.Has(schema.Attribute(v)) }
	inv, _, _ := c.where.Conjuncts[i].Split(inY1)
	return inv
}

// FilterTuples implements Algorithm 4.1's batch form: it returns the
// subset of tuples that are relevant to the view (T_out ⊆ T_in).
func (c *Checker) FilterTuples(ts []tuple.Tuple) ([]tuple.Tuple, error) {
	out := make([]tuple.Tuple, 0, len(ts))
	for _, t := range ts {
		rel, err := c.Relevant(t)
		if err != nil {
			return nil, err
		}
		if rel {
			out = append(out, t)
		}
	}
	return out, nil
}

// FilterRelation returns the relevant subset of a relation of update
// tuples, preserving the scheme.
func (c *Checker) FilterRelation(r *relation.Relation) (*relation.Relation, error) {
	out := relation.New(r.Scheme())
	var firstErr error
	r.Each(func(t tuple.Tuple) {
		if firstErr != nil {
			return
		}
		rel, err := c.Relevant(t)
		if err != nil {
			firstErr = err
			return
		}
		if rel {
			firstErr = out.Insert(t)
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// FilterUpdate filters both sides of a net update, returning the
// relevant remainder. The same condition governs inserts and deletes.
func (c *Checker) FilterUpdate(u delta.Update) (delta.Update, error) {
	out := delta.Update{Rel: u.Rel}
	var err error
	if u.Inserts != nil {
		if out.Inserts, err = c.FilterRelation(u.Inserts); err != nil {
			return delta.Update{}, err
		}
	}
	if u.Deletes != nil {
		if out.Deletes, err = c.FilterRelation(u.Deletes); err != nil {
			return delta.Update{}, err
		}
	}
	return out, nil
}

// Stats reports how many tuples were tested and how many were proven
// irrelevant since the checker was created.
func (c *Checker) Stats() (tested, irrelevant int) {
	return int(c.tested.Load()), int(c.irrelevant.Load())
}

// SetRelevant applies Theorem 4.2: given one tuple per distinct
// operand (keyed by operand index, all inserted or all deleted), it
// reports whether the combination can affect the view in some database
// state. A false result proves the set irrelevant: the simultaneous
// substitution C(t_1, …, t_k, Y2) is unsatisfiable.
func SetRelevant(b *expr.Bound, tuples map[int]tuple.Tuple, opts Options) (bool, error) {
	if opts.NELimit <= 0 {
		opts.NELimit = 64
	}
	if len(tuples) == 0 {
		return false, fmt.Errorf("irrelevance: SetRelevant with no tuples")
	}
	binds := make([]pred.Binding, 0, len(tuples))
	for opIdx, t := range tuples {
		if opIdx < 0 || opIdx >= len(b.Operands) {
			return false, fmt.Errorf("irrelevance: operand index %d out of range", opIdx)
		}
		q := b.Operands[opIdx].QScheme
		if len(t) != q.Arity() {
			return false, fmt.Errorf("irrelevance: tuple %v has arity %d, operand %d has arity %d",
				t, len(t), opIdx, q.Arity())
		}
		binds = append(binds, pred.BindTuple(q, t))
	}
	bind := func(v pred.Var) (int64, bool) {
		for _, b := range binds {
			if x, ok := b(v); ok {
				return x, true
			}
		}
		return 0, false
	}

	where := b.Where
	if where.HasNE() {
		expanded, err := pred.ExpandNEDNF(where, opts.NELimit)
		if err != nil {
			return true, nil // conservative
		}
		where = expanded
	}
	for _, conj := range where.Conjuncts {
		residual, ok := conj.Substitute(bind)
		if !ok {
			continue
		}
		sat, err := satgraph.SatisfiableConjunction(residual, opts.Method)
		if err != nil {
			return false, err
		}
		if sat {
			return true, nil
		}
	}
	return false, nil
}
