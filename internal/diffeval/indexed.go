package diffeval

// This file implements the §5 evaluator: one probe pipeline per
// (conjunct, truth-table row). Each tuple of the row's first delta slot
// walks the remaining operands one tuple at a time: an old operand is
// reached by probing a persistent index of its instance where one serves
// the link, otherwise through a transient hash table over the slot, or
// by a scan for a cross product. A residual atom applies as soon as its variables
// are bound, and each surviving joint tuple is projected and counted
// straight into the output the caller chose (a delta's run, or the
// view being materialized), so the per-transaction cost scales with
// the delta and what it joins rather than with the base relations.

import (
	"fmt"
	"slices"

	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// atomInfo is a selection atom with its variables resolved to owning
// operands and positions.
type atomInfo struct {
	leftOp   int // operand owning the left variable
	leftPos  int // position within that operand's scheme
	rightOp  int // -1 when the right side is a constant
	rightPos int
	eqJoin   bool          // x = y (no offset) across two distinct operands
	prog     *pred.Program // the atom alone, compiled against the joint scheme
}

type conjInfo struct {
	atoms []atomInfo
}

// resolveConj resolves every atom of a bound conjunct. Bound
// conditions are fully qualified, so each variable has exactly one
// owning operand.
func resolveConj(b *expr.Bound, conj pred.Conjunction) (conjInfo, error) {
	ci := conjInfo{atoms: make([]atomInfo, len(conj.Atoms))}
	resolve := func(v pred.Var) (int, int, error) {
		ops := b.OperandsOf(v)
		if len(ops) != 1 {
			return 0, 0, fmt.Errorf("diffeval: variable %q owned by %d operands", v, len(ops))
		}
		pos, ok := b.Operands[ops[0]].QScheme.Pos(schema.Attribute(v))
		if !ok {
			return 0, 0, fmt.Errorf("diffeval: variable %q missing from operand scheme", v)
		}
		return ops[0], pos, nil
	}
	for i, a := range conj.Atoms {
		ai := atomInfo{rightOp: -1}
		var err error
		ai.leftOp, ai.leftPos, err = resolve(a.Left)
		if err != nil {
			return ci, err
		}
		if a.HasRightVar() {
			ai.rightOp, ai.rightPos, err = resolve(a.Right)
			if err != nil {
				return ci, err
			}
			ai.eqJoin = a.Op == pred.OpEQ && a.C == 0 && ai.leftOp != ai.rightOp
		}
		if ai.prog, err = pred.CompileAtoms([]pred.Atom{a}, b.Joint); err != nil {
			return ci, err
		}
		ci.atoms[i] = ai
	}
	return ci, nil
}

// entry is one tuple of a transient table with its §5.3 tag, chained
// to the next entry with the same key (1-based; 0 ends the chain).
type entry struct {
	t    tuple.Tuple
	tag  tuple.Tag
	next int32
}

// step is one operand of a row's pipeline. Candidates for a bound
// prefix come from, in order of preference: the persistent index ix,
// probed with the joint value at probe; a transient hash table over
// the slot keyed on the operand column linkPos, probed with the joint
// value at link (built when the first tuple reaches the step); or, for
// a cross product (link < 0), a scan of the slot.
type step struct {
	op      int
	delta   bool // the operand contributes its delta slot, else its old slot
	ix      *relation.Index
	probe   int
	link    int
	linkPos int
	heads   map[tuple.Value]int32 // transient table: key → first entry (1-based)
	ents    []entry
	atoms   []*pred.Program // residual atoms whose variables this step binds last
	reached bool            // some tuple reached the step
}

// pipeline is one ComputeDelta or Materialize call's scratch:
// the current row's steps, the joint tuple being bound, and the output
// every completed joint tuple is counted into: the view Materialize
// builds, or else the delta's run.
type pipeline struct {
	m        *Maintainer
	sl       []*slot
	provider IndexProvider
	stats    *Stats
	view     *relation.Counted
	run      runBuilder

	ci       int // conjunct of the current row
	steps    []step
	joint    tuple.Tuple // joint-scheme tuple; steps fill their operand's columns
	proj     tuple.Tuple
	isDelta  []bool // per operand, for the current row
	consumed []bool
	assigned []bool // per atom of the current conjunct
	done     bool   // some tuple completed the current row
	err      error
}

// streamRows evaluates every non-all-old truth-table row of every
// conjunct through its probe pipeline, counting its output into view
// when one is given, and otherwise into the returned run, presized for
// hint tuples.
func (m *Maintainer) streamRows(sl []*slot, stats *Stats, provider IndexProvider, view *relation.Counted, hint int) ([]relation.CountedTuple, error) {
	var modifiedBuf [8]int
	modified := modifiedBuf[:0]
	for i := range sl {
		if sl[i].modified {
			modified = append(modified, i)
		}
	}
	n := len(sl)
	flags := make([]bool, 2*n)
	p := &pipeline{
		m: m, sl: sl, provider: provider, stats: stats, view: view,
		run:      runBuilder{arity: len(m.deltaPos), hint: hint},
		steps:    make([]step, n),
		joint:    make(tuple.Tuple, m.bound.Joint.Arity()),
		proj:     make(tuple.Tuple, len(m.deltaPos)),
		isDelta:  flags[:n],
		consumed: flags[n:],
	}
	for ci := range m.conjs {
		for mask := 1; mask < 1<<len(modified); mask++ {
			p.plan(ci, modified, mask)
			p.runRow()
			if p.err != nil {
				return nil, p.err
			}
		}
	}
	return p.run.sorted(), nil
}

// size is operand i's slot size in the current row.
func (p *pipeline) size(i int) int {
	if p.isDelta[i] {
		return p.sl[i].deltaSize()
	}
	return p.sl[i].inst.Len()
}

// link reports whether atom a equi-joins operand j to the consumed set,
// with j's column and the joint position of the bound value.
func (p *pipeline) link(a *atomInfo, j int) (jPos, bound int, ok bool) {
	switch {
	case !a.eqJoin:
		return 0, 0, false
	case a.rightOp == j && p.consumed[a.leftOp]:
		return a.rightPos, p.sl[a.leftOp].op.Offset + a.leftPos, true
	case a.leftOp == j && p.consumed[a.rightOp]:
		return a.leftPos, p.sl[a.rightOp].op.Offset + a.rightPos, true
	}
	return 0, 0, false
}

// plan fixes the operand order of conjunct ci's row mask: the row's
// smallest delta slot first, then a connected old operand with a usable
// index, else the smallest connected operand, else (a cross product)
// the smallest remaining one. Each step takes the atoms it binds last.
func (p *pipeline) plan(ci int, modified []int, mask int) {
	atoms := p.m.conjs[ci].atoms
	p.ci, p.done = ci, false
	clear(p.isDelta)
	clear(p.consumed)
	if cap(p.assigned) < len(atoms) {
		p.assigned = make([]bool, len(atoms))
	}
	p.assigned = p.assigned[:len(atoms)]
	clear(p.assigned)
	first := -1
	for bit, op := range modified {
		if mask&(1<<bit) != 0 {
			p.isDelta[op] = true
			if first < 0 || p.size(op) < p.size(first) {
				first = op
			}
		}
	}
	for d := range p.steps {
		s := &p.steps[d]
		*s = step{atoms: s.atoms[:0], heads: s.heads, ents: s.ents[:0], link: -1}
		if d == 0 {
			s.op = first
		} else {
			p.choose(s, atoms)
		}
		s.delta = p.isDelta[s.op]
		p.consumed[s.op] = true
		for ai := range atoms {
			a := &atoms[ai]
			if !p.assigned[ai] && p.consumed[a.leftOp] && (a.rightOp < 0 || p.consumed[a.rightOp]) {
				p.assigned[ai] = true
				s.atoms = append(s.atoms, a.prog)
			}
		}
	}
}

// choose picks the next operand for step s and how to reach it, and
// marks the atom that serves as its probe key applied.
func (p *pipeline) choose(s *step, atoms []atomInfo) {
	next, key := -1, -1
	var keyPos, keyBound int
	for j := range p.sl {
		if p.consumed[j] {
			continue
		}
		jKey := -1
		var jPos, jBound int
		var ix *relation.Index
		for ai := range atoms {
			pos, bound, ok := p.link(&atoms[ai], j)
			if !ok {
				continue
			}
			if jKey < 0 {
				jKey, jPos, jBound = ai, pos, bound
			}
			if !p.isDelta[j] {
				if ix = p.index(j, pos); ix != nil {
					jKey, jPos, jBound = ai, pos, bound
					break
				}
			}
		}
		if jKey < 0 {
			continue
		}
		if ix != nil {
			s.op, s.ix, s.probe = j, ix, jBound
			p.assigned[jKey] = true
			return
		}
		if next < 0 || p.size(j) < p.size(next) {
			next, key, keyPos, keyBound = j, jKey, jPos, jBound
		}
	}
	if next >= 0 {
		s.op, s.link, s.linkPos = next, keyBound, keyPos
		p.assigned[key] = true
		return
	}
	for j := range p.sl {
		if !p.consumed[j] && (next < 0 || p.size(j) < p.size(next)) {
			next = j
		}
	}
	s.op = next
}

// index returns the persistent index on column pos of operand j's
// instance: the provider's when there is one, else the instance's own.
func (p *pipeline) index(j, pos int) *relation.Index {
	if p.provider != nil {
		return p.provider.Index(p.sl[j].op.Rel, pos)
	}
	return p.sl[j].inst.Index(pos)
}

// runRow streams the row's first delta slot through the pipeline.
func (p *pipeline) runRow() {
	p.each(&p.steps[0], func(t tuple.Tuple, tag tuple.Tag) { p.enter(0, t, tag) })
	if p.done {
		p.stats.RowsEvaluated++
	}
}

// each calls f for every tuple of step s's slot: the delta slot's
// inserts and deletes, or the old slot's surviving tuples. Reading an
// old slot, or a whole instance standing as a delta slot, reads base
// rows.
func (p *pipeline) each(s *step, f func(tuple.Tuple, tuple.Tag)) {
	sl := p.sl[s.op]
	if s.delta {
		if sl.whole {
			p.stats.BaseRowsScanned += sl.ins.Len()
		}
		if sl.ins != nil {
			sl.ins.Each(func(t tuple.Tuple) { f(t, tuple.TagInsert) })
		}
		if sl.del != nil {
			sl.del.Each(func(t tuple.Tuple) { f(t, tuple.TagDelete) })
		}
		return
	}
	p.stats.BaseRowsScanned += sl.inst.Len()
	sl.inst.Each(func(t tuple.Tuple) {
		if sl.del == nil || !sl.del.Has(t) {
			f(t, tuple.TagOld)
		}
	})
}

// enter binds t, whose combined tag is tag, as step d's operand tuple;
// if the step's residual atoms hold, the joint tuple moves on.
func (p *pipeline) enter(d int, t tuple.Tuple, tag tuple.Tag) {
	if p.err != nil {
		return
	}
	s := &p.steps[d]
	copy(p.joint[p.sl[s.op].op.Offset:], t)
	for _, a := range s.atoms {
		if !a.Eval(p.joint) {
			return
		}
	}
	if d+1 < len(p.steps) {
		p.advance(d+1, tag)
	} else {
		p.emit(tag)
	}
}

// advance feeds step d every candidate that joins the bound prefix,
// tagged by §5.3's table; "ignore" combinations do not emerge.
func (p *pipeline) advance(d int, tag tuple.Tag) {
	s := &p.steps[d]
	if !s.reached {
		s.reached = true
		p.stats.JoinSteps++
		if s.ix == nil && s.link >= 0 {
			if s.heads == nil {
				s.heads = make(map[tuple.Value]int32)
			}
			clear(s.heads)
			p.each(s, func(t tuple.Tuple, tg tuple.Tag) {
				k := t[s.linkPos]
				s.ents = append(s.ents, entry{t: t, tag: tg, next: s.heads[k]})
				s.heads[k] = int32(len(s.ents))
			})
		}
	}
	join := func(t tuple.Tuple, tg tuple.Tag) {
		if jt := tuple.JoinTags(tag, tg); jt != tuple.TagIgnore {
			p.enter(d, t, jt)
		}
	}
	switch {
	case s.ix != nil:
		p.stats.IndexProbes++
		deleted := p.sl[s.op].del
		s.ix.EachMatch(p.joint[s.probe], func(t tuple.Tuple) {
			if deleted == nil || !deleted.Has(t) {
				p.enter(d, t, tag) // an old tuple keeps the prefix's tag
			}
		})
	case s.link >= 0:
		for i := s.heads[p.joint[s.link]]; i != 0; {
			e := &s.ents[i-1]
			i = e.next
			join(e.t, e.tag)
		}
	default:
		p.each(s, join)
	}
}

// emit counts a completed joint tuple into the output: §5.3's insert
// tag as +1, its delete tag as −1. Under a DNF, a tuple satisfying an
// earlier conjunct was already counted there.
func (p *pipeline) emit(tag tuple.Tag) {
	p.done = true
	for cj := 0; cj < p.ci; cj++ {
		if p.m.where.EvalConjunct(cj, p.joint) {
			return
		}
	}
	n := int64(1) // every row starts from a delta slot: the tag is insert or delete
	if tag == tuple.TagDelete {
		n = -1
	}
	for i, pos := range p.m.deltaPos {
		p.proj[i] = p.joint[pos]
	}
	if p.view == nil {
		p.run.add(p.proj, n)
	} else if err := p.view.Add(p.proj, n); err != nil {
		p.err = err
	}
}

// runBuilder collects a delta's emitted tuples, their values in one
// flat arena, until sorted sums them into the delta's run.
type runBuilder struct {
	arity, hint int
	vals        []tuple.Value
	rows        []relation.CountedTuple
}

// add appends a copy of t with count n.
func (b *runBuilder) add(t tuple.Tuple, n int64) {
	if b.rows == nil {
		b.vals = make([]tuple.Value, 0, b.hint*b.arity)
		b.rows = make([]relation.CountedTuple, 0, b.hint)
	}
	b.vals = append(b.vals, t...)
	b.rows = append(b.rows, relation.CountedTuple{Count: n})
}

// sorted sorts the emitted tuples once and sums equal ones, dropping
// the tuples whose derivations cancelled out.
func (b *runBuilder) sorted() []relation.CountedTuple {
	rows := b.rows
	for i := range rows {
		off := i * b.arity
		rows[i].Tuple = b.vals[off : off+b.arity : off+b.arity]
	}
	slices.SortFunc(rows, relation.ByTuple)
	n := 0
	for i := 0; i < len(rows); {
		r := rows[i]
		for i++; i < len(rows) && tuple.Compare(rows[i].Tuple, r.Tuple) == 0; i++ {
			r.Count += rows[i].Count
		}
		if r.Count != 0 {
			rows[n] = r
			n++
		}
	}
	return rows[:n]
}
