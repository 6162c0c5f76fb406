package bench

// The P-* experiments reproduce the paper's worked examples and
// in-text tables as executable artifacts.

import (
	"fmt"
	"io"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/irrelevance"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tabular"
	"mview/internal/tuple"
)

// example41 builds the paper's Example 4.1 database and view
// v = π_{A,D}(σ_{A<10 ∧ C>5 ∧ B=C}(r × s)).
func example41() (*schema.Database, *expr.Bound, *relation.Relation, *relation.Relation, error) {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("C", "D")},
	)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("A < 10 && C > 5 && B = C"),
		Project:  []schema.Attribute{"A", "D"},
	}, db)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 2), tuple.New(5, 10), tuple.New(10, 20))
	s := relation.MustFromTuples(schema.MustScheme("C", "D"),
		tuple.New(2, 10), tuple.New(10, 20), tuple.New(12, 15))
	return db, b, r, s, nil
}

func runP41(w io.Writer, _ bool) error {
	_, b, r, s, err := example41()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "r = %v\ns = %v\n", r, s)
	_, v, err := materialize(b, r, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "v = π_{A,D}(σ_{A<10 ∧ C>5 ∧ B=C}(r × s)) = %v\n", v)

	checker, err := irrelevance.NewChecker(b, 0, irrelevance.Options{})
	if err != nil {
		return err
	}
	t := tabular.New("update to r", "substituted condition", "verdict")
	for _, tu := range []tuple.Tuple{tuple.New(9, 10), tuple.New(11, 10), tuple.New(9, 3)} {
		rel, err := checker.Relevant(tu)
		if err != nil {
			return err
		}
		verdict := "IRRELEVANT"
		if rel {
			verdict = "relevant"
		}
		cond := fmt.Sprintf("(%d<10) ∧ (C>5) ∧ (%d=C)", tu[0], tu[1])
		t.Row("insert "+tu.String(), cond, verdict)
	}
	_, err = t.WriteTo(w)
	return err
}

func runPRH(w io.Writer, _ bool) error {
	t := tabular.New("conjunction", "normalized form", "satisfiable")
	cases := []string{
		"A < B && B < C && C < A",
		"A <= B && B <= C && C <= A",
		"A <= B + 5 && B <= A - 6",
		"A > 10 && A < 11",
		"A = B + 1 && B = A - 1",
	}
	for _, cs := range cases {
		conj := pred.MustParse(cs).Conjuncts[0]
		cons, err := pred.NormalizeConjunction(conj)
		if err != nil {
			return err
		}
		sat, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodFloyd)
		if err != nil {
			return err
		}
		norm := ""
		for i, c := range cons {
			if i > 0 {
				norm += " ∧ "
			}
			norm += c.String()
		}
		t.Row(cs, norm, fmt.Sprintf("%v", sat))
	}
	_, err := t.WriteTo(w)
	return err
}

func runP51(w io.Writer, _ bool) error {
	r := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 10), tuple.New(2, 10), tuple.New(3, 20))
	v, err := relation.ProjectCounted(relation.FromRelation(r), []schema.Attribute{"B"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "r = %v\nπ_B(r) with counters = %v\n", r, v)

	// del subtracts π_B of the deleted tuple's counters from the view's:
	// π(r1 − r2) = π(r1) ⊖ π(r2).
	del := func(t tuple.Tuple) (err error) {
		d, _ := relation.ProjectCounted(relation.FromRelation(
			relation.MustFromTuples(schema.MustScheme("A", "B"), t)), []schema.Attribute{"B"})
		d.Each(func(t tuple.Tuple, n int64) {
			if err == nil {
				err = v.Add(t, -n)
			}
		})
		return err
	}
	t := tabular.New("operation", "view after", "note")
	if err := del(tuple.New(3, 20)); err != nil {
		return err
	}
	t.Row("delete r(3,20)", v.String(), "counter 1→0: 20 leaves the view")
	if err := del(tuple.New(1, 10)); err != nil {
		return err
	}
	t.Row("delete r(1,10)", v.String(), "counter 2→1: 10 SURVIVES (naive set delete would drop it)")
	_, err = t.WriteTo(w)
	return err
}

// joinExample builds R(A,B), S(B,C) and the natural-join view.
func joinExample() (*schema.Database, *expr.Bound, error) {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
	)
	if err != nil {
		return nil, nil, err
	}
	v, err := expr.NaturalJoin("v", db, "R", "S")
	if err != nil {
		return nil, nil, err
	}
	b, err := expr.Bind(v, db)
	if err != nil {
		return nil, nil, err
	}
	return db, b, nil
}

func runP52(w io.Writer, _ bool) error {
	_, b, err := joinExample()
	if err != nil {
		return err
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(5, 20))
	m, view, err := materialize(b, r, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "r = %v, s = %v\nv = r ⋈ s = %v\n", r, s, view)
	ir := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(7, 5))
	d, err := m.ComputeDelta([]*relation.Relation{r, s}, []delta.Update{{Rel: "R", Inserts: ir}})
	if err != nil {
		return err
	}
	if err := diffeval.Apply(view, d); err != nil {
		return err
	}
	fmt.Fprintf(w, "insert i_r = %v\nΔv = i_r ⋈ s = %v (computed WITHOUT re-joining r)\nv' = v ∪ Δv = %v\n",
		ir, runString(d), view)
	return nil
}

func runP53(w io.Writer, _ bool) error {
	_, b, err := joinExample()
	if err != nil {
		return err
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2), tuple.New(3, 5))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(5, 20))
	m, view, err := materialize(b, r, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "r = %v, s = %v\nv = r ⋈ s = %v\n", r, s, view)
	dr := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(3, 5))
	d, err := m.ComputeDelta([]*relation.Relation{r, s}, []delta.Update{{Rel: "R", Deletes: dr}})
	if err != nil {
		return err
	}
	if err := diffeval.Apply(view, d); err != nil {
		return err
	}
	fmt.Fprintf(w, "delete d_r = %v\nΔv = d_r ⋈ s = %v (negative: to delete)\nv' = v − Δv = %v\n",
		dr, runString(d), view)
	return nil
}

func runP54(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "join tag table (§5.3): value of tag(t1 ⋈ t2)")
	t := tabular.New("t1 \\ t2", "insert", "delete", "old")
	tags := []tuple.Tag{tuple.TagInsert, tuple.TagDelete, tuple.TagOld}
	for _, a := range tags {
		row := []string{a.String()}
		for _, b := range tags {
			row = append(row, tuple.JoinTags(a, b).String())
		}
		t.Row(row...)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "select/project tag table (§5.3): tags pass through unchanged")
	t2 := tabular.New("operand tag", "σ/π result tag")
	for _, a := range tags {
		t2.Row(a.String(), tuple.UnaryTag(a).String())
	}
	_, err := t2.WriteTo(w)
	return err
}

func runP55(w io.Writer, _ bool) error {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
	)
	if err != nil {
		return err
	}
	v, err := expr.NaturalJoin("v", db, "R", "S")
	if err != nil {
		return err
	}
	v.Where.Conjuncts[0].Atoms = append(v.Where.Conjuncts[0].Atoms,
		pred.VarConst("S.C", pred.OpGT, 10))
	v.Project = []schema.Attribute{"R.A"}
	b, err := expr.Bind(v, db)
	if err != nil {
		return err
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"),
		tuple.New(2, 5), tuple.New(3, 20), tuple.New(4, 30))
	m, view, err := materialize(b, r, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "v = π_A(σ_{C>10}(R ⋈ S)); r = %v, s = %v\ninitial v = %v\n", r, s, view)
	ir := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(9, 3), tuple.New(9, 4), tuple.New(7, 2))
	d, err := m.ComputeDelta([]*relation.Relation{r, s}, []delta.Update{{Rel: "R", Inserts: ir}})
	if err != nil {
		return err
	}
	if err := diffeval.Apply(view, d); err != nil {
		return err
	}
	fmt.Fprintf(w, "insert i_r = %v\nΔv = π_A(σ_{C>10}(i_r ⋈ s)) = %v\n", ir, runString(d))
	fmt.Fprintf(w, "v' = %v   (tuple (9) carries counter 2: two derivations)\n", view)
	return nil
}

func runPTT3(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "truth table for v' = (r1 ∪ i1) ⋈ (r2 ∪ i2) ⋈ r3, transaction touches r1, r2 only")
	t := tabular.New("row", "B1", "B2", "B3", "term", "evaluated?")
	rows := []struct {
		b1, b2, b3 int
		term       string
	}{
		{0, 0, 0, "r1 ⋈ r2 ⋈ r3"},
		{0, 0, 1, "r1 ⋈ r2 ⋈ i3"},
		{0, 1, 0, "r1 ⋈ i2 ⋈ r3"},
		{0, 1, 1, "r1 ⋈ i2 ⋈ i3"},
		{1, 0, 0, "i1 ⋈ r2 ⋈ r3"},
		{1, 0, 1, "i1 ⋈ r2 ⋈ i3"},
		{1, 1, 0, "i1 ⋈ i2 ⋈ r3"},
		{1, 1, 1, "i1 ⋈ i2 ⋈ i3"},
	}
	for i, r := range rows {
		why := "yes"
		switch {
		case r.b3 == 1:
			why = "no: i3 = ∅ (r3 untouched)"
		case r.b1 == 0 && r.b2 == 0:
			why = "no: all-old row = current v"
		}
		t.Row(fmt.Sprintf("%d", i+1), fmt.Sprint(r.b1), fmt.Sprint(r.b2), fmt.Sprint(r.b3), r.term, why)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "rows 3, 5, 7 are evaluated — exactly the paper's v' = v ∪ (r1⋈i2⋈r3) ∪ (i1⋈r2⋈r3) ∪ (i1⋈i2⋈r3)")

	// Execute it for real and report the engine's row count.
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R1", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "R2", Scheme: schema.MustScheme("B", "C")},
		&schema.RelScheme{Name: "R3", Scheme: schema.MustScheme("C", "D")},
	)
	if err != nil {
		return err
	}
	jv, err := expr.NaturalJoin("v", db, "R1", "R2", "R3")
	if err != nil {
		return err
	}
	b, err := expr.Bind(jv, db)
	if err != nil {
		return err
	}
	r1 := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	r2 := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 3))
	r3 := relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(3, 4))
	m, err := diffeval.NewMaintainer(b, diffeval.Options{})
	if err != nil {
		return err
	}
	d, err := m.ComputeDelta([]*relation.Relation{r1, r2, r3}, []delta.Update{
		{Rel: "R1", Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(10, 2))},
		{Rel: "R2", Inserts: relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 30))},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "engine: ModifiedOperands=%d RowsEvaluated=%d (≤ 2^2−1 = 3: a row whose tuples all fall out midway is pruned) Δv=%v\n",
		d.Stats.ModifiedOperands, d.Stats.RowsEvaluated, runString(d))
	return nil
}

// runString renders a view delta's run of signed counts as
// "{(9)+2, (3, 5, 20)-1}".
func runString(d *diffeval.ViewDelta) string {
	s := "{"
	for i, r := range d.Rows {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s%+d", r.Tuple, r.Count)
	}
	return s + "}"
}

// materialize evaluates b from scratch over insts with the engine's
// evaluator, returning the maintainer with the view.
func materialize(b *expr.Bound, insts ...*relation.Relation) (*diffeval.Maintainer, *relation.Counted, error) {
	m, err := diffeval.NewMaintainer(b, diffeval.Options{})
	if err != nil {
		return nil, nil, err
	}
	view, _, err := m.Materialize(insts, nil)
	if err != nil {
		return nil, nil, err
	}
	return m, view, nil
}
