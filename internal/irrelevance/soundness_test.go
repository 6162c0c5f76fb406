package irrelevance

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mview/internal/delta"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// soundShapes are the operand lists the soundness check draws views
// over, with the variables a condition may name: one relation, two,
// and a self-join.
var soundShapes = []struct {
	ops  []expr.Operand
	vars []string
}{
	{[]expr.Operand{{Rel: "R"}}, []string{"A", "B"}},
	{[]expr.Operand{{Rel: "R"}, {Rel: "S"}}, []string{"A", "B", "C", "D"}},
	{[]expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}}, []string{"x.A", "x.B", "y.A", "y.B"}},
}

// soundCondition draws a condition over vars from a small grammar: a
// DNF of one or two conjuncts of one to three atoms, each comparing a
// variable with another plus an offset in [-2, 2], or with a constant
// in [0, 3], by any of <, <=, =, >=, >, !=.
func soundCondition(rng *rand.Rand, vars []string) string {
	ops := []string{"<", "<=", "=", ">=", ">", "!="}
	conjs := make([]string, 1+rng.Intn(2))
	for i := range conjs {
		atoms := make([]string, 1+rng.Intn(3))
		for j := range atoms {
			left, op := vars[rng.Intn(len(vars))], ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				atoms[j] = fmt.Sprintf("%s %s %d", left, op, rng.Intn(4))
				continue
			}
			right := vars[rng.Intn(len(vars))]
			for right == left {
				right = vars[rng.Intn(len(vars))]
			}
			sign, k := "+", rng.Intn(5)-2
			if k < 0 {
				sign, k = "-", -k
			}
			atoms[j] = fmt.Sprintf("%s %s %s %s %d", left, op, right, sign, k)
		}
		conjs[i] = "(" + strings.Join(atoms, " && ") + ")"
	}
	return strings.Join(conjs, " || ")
}

// tuplesOver returns every tuple of the given arity over dom.
func tuplesOver(dom []int64, arity int) []tuple.Tuple {
	out := []tuple.Tuple{{}}
	for k := 0; k < arity; k++ {
		var next []tuple.Tuple
		for _, t := range out {
			for _, v := range dom {
				next = append(next, append(t[:len(t):len(t)], v))
			}
		}
		out = next
	}
	return out
}

// witness searches for a database state in which inserting t into
// operand i's relation changes the view: one tuple per other operand,
// over dom, that with t as operand i completes a joint tuple satisfying
// the condition. Such tuples are a state D (less t itself) whose view
// gains a derivation when t is inserted, and loses it when t is deleted
// again. It returns nil when no tuple over dom does.
func witness(b *expr.Bound, where *pred.Program, i int, t tuple.Tuple, dom []int64) []tuple.Tuple {
	joint := make(tuple.Tuple, b.Joint.Arity())
	copy(joint[b.Operands[i].Offset:], t)
	others := make([]tuple.Tuple, len(b.Operands))
	others[i] = t
	var search func(j int) bool
	search = func(j int) bool {
		if j == len(b.Operands) {
			return where.Eval(joint)
		}
		if j == i {
			return search(j + 1)
		}
		for _, u := range tuplesOver(dom, b.Operands[j].Scheme.Arity()) {
			copy(joint[b.Operands[j].Offset:], u)
			if others[j] = u; search(j + 1) {
				return true
			}
		}
		return false
	}
	if !search(0) {
		return nil
	}
	return others
}

// confirm checks a witness against the definition: materialized over
// the state the witness names, with and without t in operand i's
// relation, the view (π_X(σ_C(…)) with its §5.2 counts) must differ.
func confirm(t *testing.T, b *expr.Bound, i int, tu tuple.Tuple, others []tuple.Tuple) bool {
	t.Helper()
	db := testDB(t)
	state := func(withT bool) []*relation.Relation {
		rels := make(map[string]*relation.Relation)
		for _, name := range []string{"R", "S"} {
			rs, _ := db.Rel(name)
			rels[name] = relation.New(rs.Scheme)
		}
		for j, u := range others {
			if j != i {
				_ = rels[b.Operands[j].Rel].Insert(u)
			}
		}
		target := rels[b.Operands[i].Rel]
		if withT {
			_ = target.Insert(tu)
		} else {
			target.Delete(tu)
		}
		insts := make([]*relation.Relation, len(b.Operands))
		for j, op := range b.Operands {
			insts[j] = rels[op.Rel]
		}
		return insts
	}
	without, err := eval.Materialize(b, state(false), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	with, err := eval.Materialize(b, state(true), eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return !without.Equal(with)
}

// TestIrrelevantVerdictsMatchDefinition checks §4 against its
// definition (Theorems 4.1 and 4.2: an irrelevant update leaves the view
// unchanged in every database state) rather than against other code.
// Over R(A,B) and S(C,D) it draws view conditions with offsets, ≠, DNF
// and self-joins, takes every verdict on every tuple over a small
// domain from each operand's Checker (with the default ≠ expansion and
// with a cap that forces the conservative fallback) and from a route
// index over all of them, and brute-forces a state in which inserting
// or deleting the tuple changes the view. A witness for an irrelevant
// verdict is a soundness bug. A relevant verdict without a witness is
// only incompleteness (the ≠ cap is conservative by design, and a
// witness may need values outside the search domain): it is logged as
// a count.
func TestIrrelevantVerdictsMatchDefinition(t *testing.T) {
	const viewsPerShape = 150
	db := testDB(t)
	rng := rand.New(rand.NewSource(46))
	tuples := tuplesOver([]int64{0, 1, 2, 3}, 2)
	// Wide enough for every constant and offset the grammar draws.
	var dom []int64
	for v := int64(-5); v <= 8; v++ {
		dom = append(dom, v)
	}
	type target struct {
		b     *expr.Bound
		where *pred.Program
		op    int
		ck    *Checker
	}
	var all []target
	for _, shape := range soundShapes {
		for n := 0; n < viewsPerShape; n++ {
			cond := soundCondition(rng, shape.vars)
			var project []schema.Attribute
			for _, v := range shape.vars {
				if rng.Intn(3) == 0 {
					project = append(project, schema.Attribute(v))
				}
			}
			b, err := expr.Bind(expr.View{Name: fmt.Sprintf("v%d", len(all)), Operands: shape.ops,
				Where: pred.MustParse(cond), Project: project}, db)
			if err != nil {
				t.Fatalf("%s: %v", cond, err)
			}
			where, err := b.Where.CompileProgram(b.Joint)
			if err != nil {
				t.Fatal(err)
			}
			for op := range b.Operands {
				for _, opts := range []Options{{}, {NELimit: 2}} {
					ck, err := NewChecker(b, op, opts)
					if err != nil {
						t.Fatalf("%s: %v", cond, err)
					}
					all = append(all, target{b, where, op, ck})
				}
			}
		}
	}

	var irrelevant, relevant, unwitnessed int
	check := func(source string, tg target, tu tuple.Tuple, rel bool) {
		w := witness(tg.b, tg.where, tg.op, tu, dom)
		switch {
		case rel && w == nil:
			relevant++
			unwitnessed++
		case rel:
			// Spot-check that a witness the search finds is one by the
			// definition, so that finding none for an irrelevant
			// verdict means something.
			if relevant++; relevant%64 == 0 && !confirm(t, tg.b, tg.op, tu, w) {
				t.Fatalf("witness %v for %v on %v does not change the view", w, tu, tg.b.Where)
			}
		case w == nil:
			irrelevant++
		case confirm(t, tg.b, tg.op, tu, w):
			t.Errorf("%s calls %v irrelevant to operand %d of %v, but operand tuples %v derive a view tuple",
				source, tu, tg.op, tg.b.Where, w)
		default:
			t.Fatalf("witness %v for %v on %v does not change the view", w, tu, tg.b.Where)
		}
	}
	for _, tg := range all {
		for _, tu := range tuples {
			rel, err := tg.ck.Relevant(tu)
			if err != nil {
				t.Fatal(err)
			}
			check("the checker", tg, tu, rel)
		}
	}
	// The route index over every checker of a relation, as the engine
	// builds one per base relation.
	for _, rel := range []string{"R", "S"} {
		var tgs []target
		var cks []*Checker
		for _, tg := range all {
			if tg.b.Operands[tg.op].Rel == rel {
				tgs, cks = append(tgs, tg), append(cks, tg.ck)
			}
		}
		ix, err := NewIndex(cks)
		if err != nil {
			t.Fatal(err)
		}
		rs, _ := db.Rel(rel)
		for _, tu := range tuples {
			routed, _, err := ix.Route(delta.Update{Rel: rel, Inserts: relation.MustFromTuples(rs.Scheme, tu)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			reached := make([]bool, len(cks))
			for _, r := range routed {
				reached[r.Checker] = true
			}
			for k, tg := range tgs {
				check("the route index", tg, tu, reached[k])
			}
		}
	}
	if irrelevant == 0 || relevant == 0 {
		t.Fatalf("degenerate draw: %d irrelevant and %d relevant verdicts", irrelevant, relevant)
	}
	t.Logf("%d irrelevant verdicts, none with a witness; %d relevant verdicts, %d of them with no witness over [%d, %d] (incompleteness)",
		irrelevant, relevant, unwitnessed, dom[0], dom[len(dom)-1])
}
