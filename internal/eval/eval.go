// Package eval is the reference evaluator: it computes a bound SPJ view
// from scratch over plain relation instances — the paper's "complete
// re-evaluation" — as directly as it can be written, so the engine's §5
// evaluator (internal/diffeval) can be checked against code it shares
// nothing with. Tests and the benchmark harness use it; the engine
// never does.
//
// Each conjunct of the (DNF) selection condition is evaluated on its
// own, binding the operands in the order the view lists them. An
// operand with an equality atom linking one of its columns to an
// earlier operand is reached through a hash table on that column, any
// other by a scan. The conjunct is then checked on the whole joint
// tuple, and a joint tuple is counted (§5.2) under the first conjunct
// it satisfies, so one satisfying several conjuncts counts once.
package eval

import (
	"fmt"

	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// Options is accepted for callers that set it; it changes nothing.
type Options struct {
	// Greedy is a no-op: the reference evaluator always joins the
	// operands in the order the view was written.
	Greedy bool
}

// Materialize evaluates the view over base relation instances (one per
// operand, in operand order), returning the counted view
// π_X(σ_C(r1 × … × rp)) with §5.2 multiplicity counters.
func Materialize(b *expr.Bound, insts []*relation.Relation, _ Options) (*relation.Counted, error) {
	if len(insts) != len(b.Operands) {
		return nil, fmt.Errorf("eval: %d instances for %d operands", len(insts), len(b.Operands))
	}
	for i, r := range insts {
		if !r.Scheme().Equal(b.Operands[i].Scheme) {
			return nil, fmt.Errorf("eval: instance %d has scheme %s, operand %q wants %s",
				i, r.Scheme(), b.Operands[i].Alias, b.Operands[i].Scheme)
		}
	}
	where, err := b.Where.CompileProgram(b.Joint)
	if err != nil {
		return nil, err
	}
	out, err := b.OutScheme()
	if err != nil {
		return nil, err
	}
	view := relation.NewCounted(out)
	joint := make(tuple.Tuple, b.Joint.Arity())
	proj := make(tuple.Tuple, len(b.ProjPos))
	for ci, conj := range b.Where.Conjuncts {
		// tables[i] maps operand i's linking column to its tuples;
		// bound[i] is the joint position of the earlier column it links to.
		tables := make([]map[tuple.Value][]tuple.Tuple, len(insts))
		bound := make([]int, len(insts))
		for i := range insts {
			col, at, ok := linkToEarlier(b, conj, i)
			if !ok {
				continue
			}
			tables[i], bound[i] = make(map[tuple.Value][]tuple.Tuple), at
			insts[i].Each(func(t tuple.Tuple) { tables[i][t[col]] = append(tables[i][t[col]], t) })
		}
		var bind func(i int) error
		bind = func(i int) error {
			if i == len(insts) {
				if !where.EvalConjunct(ci, joint) {
					return nil
				}
				for cj := 0; cj < ci; cj++ {
					if where.EvalConjunct(cj, joint) {
						return nil
					}
				}
				for k, pos := range b.ProjPos {
					proj[k] = joint[pos]
				}
				return view.Add(proj, 1)
			}
			var err error
			visit := func(t tuple.Tuple) {
				if err == nil {
					copy(joint[b.Operands[i].Offset:], t)
					err = bind(i + 1)
				}
			}
			if tables[i] != nil {
				for _, t := range tables[i][joint[bound[i]]] {
					visit(t)
				}
			} else {
				insts[i].Each(visit)
			}
			return err
		}
		if err := bind(0); err != nil {
			return nil, err
		}
	}
	return view, nil
}

// linkToEarlier finds an equality atom of conj (x = y, no offset)
// between a column of operand i and a column of an earlier operand. It
// returns i's column and the joint position of the earlier one.
func linkToEarlier(b *expr.Bound, conj pred.Conjunction, i int) (col, at int, ok bool) {
	owner := func(v pred.Var) (op, pos int) {
		ops := b.OperandsOf(v)
		if len(ops) != 1 {
			return -1, 0
		}
		pos, _ = b.Operands[ops[0]].QScheme.Pos(schema.Attribute(v))
		return ops[0], pos
	}
	for _, a := range conj.Atoms {
		if a.Op != pred.OpEQ || !a.HasRightVar() || a.C != 0 {
			continue
		}
		lo, lp := owner(a.Left)
		ro, rp := owner(a.Right)
		if lo == i && ro >= 0 && ro < i {
			return lp, b.Operands[ro].Offset + rp, true
		}
		if ro == i && lo >= 0 && lo < i {
			return rp, b.Operands[lo].Offset + lp, true
		}
	}
	return 0, 0, false
}
