package diffeval

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mview/internal/delta"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/irrelevance"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func testDB(t *testing.T) *schema.Database {
	t.Helper()
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
		&schema.RelScheme{Name: "T", Scheme: schema.MustScheme("C", "D")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func joinView(t *testing.T, db *schema.Database, rels ...string) *expr.Bound {
	t.Helper()
	v, err := expr.NaturalJoin("v", db, rels...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expr.Bind(v, db)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// count returns t's signed count in the delta's run (0 when absent).
func (d *ViewDelta) count(t tuple.Tuple) int64 {
	if i, ok := slices.BinarySearchFunc(d.Rows, relation.CountedTuple{Tuple: t}, relation.ByTuple); ok {
		return d.Rows[i].Count
	}
	return 0
}

func sameRow(a, b relation.CountedTuple) bool {
	return a.Count == b.Count && tuple.Compare(a.Tuple, b.Tuple) == 0
}

func maintain(t *testing.T, m *Maintainer, view *relation.Counted,
	insts []*relation.Relation, ups []delta.Update) *ViewDelta {
	t.Helper()
	d, err := m.ComputeDelta(insts, ups)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(view, d); err != nil {
		t.Fatal(err)
	}
	return d
}

func applyUpdates(t *testing.T, insts []*relation.Relation, names []string, ups []delta.Update) []*relation.Relation {
	t.Helper()
	out := make([]*relation.Relation, len(insts))
	for i := range insts {
		out[i] = insts[i].Clone()
		for _, u := range ups {
			if u.Rel == names[i] {
				if err := u.Apply(out[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return out
}

// TestExample52 reproduces Example 5.2: insert-only maintenance of
// V = R ⋈ S via v' = v ∪ (i_r ⋈ s).
func TestExample52(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(5, 20))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 1 || !view.Has(tuple.New(1, 2, 10)) {
		t.Fatalf("initial view = %v", view)
	}

	ir := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(7, 5), tuple.New(8, 99))
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, []delta.Update{{Rel: "R", Inserts: ir}})

	// (7,5) joins (5,20); (8,99) matches nothing.
	if len(d.Rows) != 1 || d.count(tuple.New(7, 5, 20)) != 1 {
		t.Errorf("delta = %v", d)
	}
	if view.Len() != 2 || !view.Has(tuple.New(7, 5, 20)) {
		t.Errorf("view after = %v", view)
	}
	if d.Stats.ModifiedOperands != 1 || d.Stats.RowsEvaluated != 1 {
		t.Errorf("stats = %+v", d.Stats)
	}
}

// TestExample53 reproduces Example 5.3: delete-only maintenance via
// v' = v − (d_r ⋈ s).
func TestExample53(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2), tuple.New(3, 5))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(5, 20))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 2 {
		t.Fatalf("initial view = %v", view)
	}

	dr := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(3, 5))
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, []delta.Update{{Rel: "R", Deletes: dr}})
	if len(d.Rows) != 1 || d.count(tuple.New(3, 5, 20)) != -1 {
		t.Errorf("delta = %v", d)
	}
	if view.Len() != 1 || view.Has(tuple.New(3, 5, 20)) {
		t.Errorf("view after = %v", view)
	}
}

// TestExample55 reproduces Example 5.5: the SPJ view
// π_A(σ_{C>10}(R ⋈ S)) maintained under inserts to R.
func TestExample55(t *testing.T) {
	db := testDB(t)
	v, err := expr.NaturalJoin("v", db, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	// Restrict to π_A σ_{C>10}.
	v.Where.Conjuncts[0].Atoms = append(v.Where.Conjuncts[0].Atoms,
		pred.VarConst("S.C", pred.OpGT, 10))
	v.Project = []schema.Attribute{"R.A"}
	b, err := expr.Bind(v, db)
	if err != nil {
		t.Fatal(err)
	}

	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"),
		tuple.New(2, 5), tuple.New(3, 20), tuple.New(4, 30))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 0 {
		t.Fatalf("initial view = %v", view)
	}

	ir := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(9, 3), tuple.New(9, 4), tuple.New(7, 2))
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, []delta.Update{{Rel: "R", Inserts: ir}})

	// (9,3)⋈(3,20) and (9,4)⋈(4,30) both pass C>10 and project to A=9:
	// the view tuple (9) gains TWO derivations. (7,2)⋈(2,5) fails C>10.
	if d.count(tuple.New(9)) != 2 {
		t.Errorf("delta = %v, want (9)+2", d)
	}
	if view.Count(tuple.New(9)) != 2 {
		t.Errorf("view = %v", view)
	}

	// Deleting one derivation keeps the view tuple (§5.2 counters).
	dr := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(9, 3))
	pre := applyUpdates(t, []*relation.Relation{r, s}, []string{"R", "S"},
		[]delta.Update{{Rel: "R", Inserts: ir}})
	maintain(t, m, view, pre, []delta.Update{{Rel: "R", Deletes: dr}})
	if view.Count(tuple.New(9)) != 1 {
		t.Errorf("after one delete view = %v, want (9)×1", view)
	}
}

// TestExample54Cases reproduces the six cases of the paper's Example
// 5.4 for V = R ⋈ S with R(A,B), S(B,C): the one derivation
// (1,2) ⋈ (2,3) is placed in each pair of slots, and the evaluator must
// tag it by §5.3's table, with and without indexes.
func TestExample54Cases(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	rs, ss := schema.MustScheme("A", "B"), schema.MustScheme("B", "C")
	rt, st := tuple.New(1, 2), tuple.New(2, 3)
	cases := []struct {
		name       string
		rTag, sTag tuple.Tag
		want       tuple.Tag // TagOld: no change reaches the view
	}{
		{"case1 i_r⋈i_s → insert", tuple.TagInsert, tuple.TagInsert, tuple.TagInsert},
		{"case2 i_r⋈d_s → ignore", tuple.TagInsert, tuple.TagDelete, tuple.TagOld},
		{"case3 i_r⋈s → insert", tuple.TagInsert, tuple.TagOld, tuple.TagInsert},
		{"case4 d_r⋈d_s → delete", tuple.TagDelete, tuple.TagDelete, tuple.TagDelete},
		{"case5 d_r⋈s → delete", tuple.TagDelete, tuple.TagOld, tuple.TagDelete},
		{"case6 r⋈s → old", tuple.TagOld, tuple.TagOld, tuple.TagOld},
	}
	// slot places t in the slot tag names: absent before and inserted,
	// present and deleted, or present and untouched.
	slot := func(rel string, s *schema.Scheme, tu tuple.Tuple, tag tuple.Tag) (*relation.Relation, delta.Update) {
		pre, u := relation.New(s), delta.Update{Rel: rel}
		switch tag {
		case tuple.TagInsert:
			u.Inserts = relation.MustFromTuples(s, tu)
		case tuple.TagDelete:
			u.Deletes = relation.MustFromTuples(s, tu)
			_ = pre.Insert(tu)
		default:
			_ = pre.Insert(tu)
		}
		return pre, u
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, ur := slot("R", rs, rt, c.rTag)
			s, us := slot("S", ss, st, c.sTag)
			for _, prov := range []IndexProvider{nil, buildAllIndexes(t, []string{"R", "S"}, map[string]*relation.Relation{"R": r, "S": s})} {
				d, err := m.ComputeDeltaWith([]*relation.Relation{r, s}, []delta.Update{ur, us}, prov)
				if err != nil {
					t.Fatal(err)
				}
				joint := tuple.New(1, 2, 3)
				n := d.count(joint)
				switch {
				case c.want == tuple.TagInsert && n != 1,
					c.want == tuple.TagDelete && n != -1,
					c.want == tuple.TagOld && n != 0:
					t.Errorf("provider %T: delta = %v, want the joint tuple tagged %v", prov, d, c.want)
				}
				if len(d.Rows) > 1 {
					t.Errorf("provider %T: delta = %v, want at most the one joint tuple", prov, d)
				}
			}
		})
	}
}

// TestTruthTableP3 checks §5.3's p=3 example: when r1 and r2 are
// modified, exactly rows 3, 5, 7 of the truth table are computed.
func TestTruthTableP3(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S", "T")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 3))
	tt := relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(3, 4))
	view, err := eval.Materialize(b, []*relation.Relation{r, s, tt}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ups := []delta.Update{
		{Rel: "R", Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(10, 2))},
		{Rel: "S", Inserts: relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 30))},
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s, tt}, ups)
	if d.Stats.ModifiedOperands != 2 {
		t.Errorf("k = %d, want 2", d.Stats.ModifiedOperands)
	}
	// 2^2 − 1 = 3 rows: (r, i_s, t), (i_r, s, t), (i_r, i_s, t) —
	// exactly the paper's rows 3, 5, 7. Two of them go empty midway
	// (i_s finds no T partner) and are pruned, so one completes.
	if d.Stats.RowsEvaluated != 1 {
		t.Errorf("rows = %d, want 1", d.Stats.RowsEvaluated)
	}
	// i_r=(10,2) joins s=(2,3) → (10,2,3,4); r=(1,2) joins
	// i_s=(2,30) → nothing in T(C=30); i_r ⋈ i_s → (10,2,30,…) → no T.
	if view.Len() != 2 || !view.Has(tuple.New(10, 2, 3, 4)) {
		t.Errorf("view = %v", view)
	}
}

// TestDeleteBothSides covers the d_r ⋈ d_s case (Example 5.4 case 4):
// a view tuple whose r- and s-components are both deleted must be
// deleted exactly once.
func TestDeleteBothSides(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := []delta.Update{
		{Rel: "R", Deletes: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))},
		{Rel: "S", Deletes: relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))},
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, ups)
	if d.count(tuple.New(1, 2, 10)) != -1 {
		t.Errorf("delta = %v, want (1,2,10)-1", d)
	}
	if view.Len() != 0 {
		t.Errorf("view after = %v", view)
	}
}

// TestInsertMeetsDeleteIgnored covers Example 5.4 case 2: an inserted
// r-tuple joining a deleted s-tuple must not reach the view.
func TestInsertMeetsDeleteIgnored(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.New(schema.MustScheme("A", "B"))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := []delta.Update{
		{Rel: "R", Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))},
		{Rel: "S", Deletes: relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))},
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, ups)
	if len(d.Rows) != 0 || view.Len() != 0 {
		t.Errorf("delta=%v view=%v, want both empty", d, view)
	}
}

// selectDelta computes a single-operand view's delta through
// ComputeDelta: the p = 1 case, where §5.1's formula
// π(σ_C(i_r)) / π(σ_C(d_r)) is the one truth-table row.
func selectDelta(t *testing.T, b *expr.Bound, r *relation.Relation, u delta.Update) *ViewDelta {
	t.Helper()
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.ComputeDelta([]*relation.Relation{r}, []delta.Update{u})
	if err != nil {
		t.Fatal(err)
	}
	ins := 0
	for _, r := range d.Rows {
		if r.Count > 0 {
			ins++
		}
	}
	if want := (Stats{ModifiedOperands: 1, RowsEvaluated: d.Stats.RowsEvaluated,
		DeltaInserts: ins, DeltaDeletes: len(d.Rows) - ins}); d.Stats != want {
		t.Errorf("stats = %+v: a select view's delta joins nothing and reads no base row", d.Stats)
	}
	return d
}

// TestSelectViewDelta checks the §5.1 select-view formula: the delta is
// σ_C of the inserts and σ_C of the deletes.
func TestSelectViewDelta(t *testing.T) {
	db := testDB(t)
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A >= 10"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	u := delta.Update{
		Rel:     "R",
		Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(11, 0), tuple.New(5, 0)),
		Deletes: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(20, 0)),
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(20, 0), tuple.New(1, 1))
	d := selectDelta(t, b, r, u)
	if len(d.Rows) != 2 || d.count(tuple.New(11, 0)) != 1 || d.count(tuple.New(20, 0)) != -1 {
		t.Errorf("delta = %v", d)
	}
	if d.Stats.RowsEvaluated != 1 {
		t.Errorf("rows = %d, want 1", d.Stats.RowsEvaluated)
	}
}

// TestFilterReducesWork wires the §4 pre-filter into maintenance and
// checks both the stats and the unchanged result.
func TestFilterReducesWork(t *testing.T) {
	db := testDB(t)
	v, err := expr.NaturalJoin("v", db, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	v.Where.Conjuncts[0].Atoms = append(v.Where.Conjuncts[0].Atoms,
		pred.VarConst("R.A", pred.OpLT, 10))
	b, err := expr.Bind(v, db)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(schema.MustScheme("A", "B"))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ir := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 2),   // relevant, joins s
		tuple.New(50, 2),  // irrelevant: A ≥ 10
		tuple.New(99, 99), // irrelevant: A ≥ 10
	)
	m, err := NewMaintainer(b, Options{Filter: true, FilterOptions: irrelevance.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, []delta.Update{{Rel: "R", Inserts: ir}})
	if d.Stats.FilteredOut != 2 {
		t.Errorf("FilteredOut = %d, want 2", d.Stats.FilteredOut)
	}
	if view.Len() != 1 || !view.Has(tuple.New(1, 2, 10)) {
		t.Errorf("view = %v", view)
	}
}

// TestFilterOnlyIrrelevantSkipsAllWork: when every update tuple is
// filtered out, no rows are evaluated at all.
func TestFilterOnlyIrrelevantSkipsAllWork(t *testing.T) {
	db := testDB(t)
	v, err := expr.NaturalJoin("v", db, "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	v.Where.Conjuncts[0].Atoms = append(v.Where.Conjuncts[0].Atoms,
		pred.VarConst("R.A", pred.OpLT, 10))
	b, err := expr.Bind(v, db)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(schema.MustScheme("A", "B"))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))
	view, _ := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	ir := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(50, 2))
	m, err := NewMaintainer(b, Options{Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, s}, []delta.Update{{Rel: "R", Inserts: ir}})
	if d.Stats.ModifiedOperands != 0 || d.Stats.RowsEvaluated != 0 {
		t.Errorf("stats = %+v, want no work", d.Stats)
	}
}

func TestComputeDeltaErrors(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ComputeDelta(nil, nil); err == nil {
		t.Error("instance count mismatch must fail")
	}
	r := relation.New(schema.MustScheme("A", "B"))
	s := relation.New(schema.MustScheme("B", "C"))
	dup := []delta.Update{{Rel: "R"}, {Rel: "R"}}
	if _, err := m.ComputeDelta([]*relation.Relation{r, s}, dup); err == nil {
		t.Error("duplicate relation update must fail")
	}
	wrong := relation.New(schema.MustScheme("X"))
	if _, err := m.ComputeDelta([]*relation.Relation{wrong, s}, nil); err == nil {
		t.Error("instance scheme mismatch must fail")
	}
	if m.Bound() != b {
		t.Error("Bound accessor broken")
	}
}

// TestSelfJoinUpdates: one relation referenced twice; its update must
// flow into both operands.
func TestSelfJoinUpdates(t *testing.T) {
	db := testDB(t)
	// v = σ_{x.B = y.A}(R as x × R as y): pairs chained by B→A.
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}},
		Where:    pred.MustParse("x.B = y.A"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	view, err := eval.Materialize(b, []*relation.Relation{r, r}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 0 {
		t.Fatalf("initial view = %v", view)
	}
	// Insert (2,1): creates both (1,2)-(2,1) and (2,1)-(1,2), plus…
	// (2,1)⋈(1,2): B=1=A ✓; (1,2)⋈(2,1): B=2=A ✓.
	ins := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(2, 1))
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := maintain(t, m, view, []*relation.Relation{r, r}, []delta.Update{{Rel: "R", Inserts: ins}})
	if d.Stats.ModifiedOperands != 2 {
		t.Errorf("self-join must mark both operands modified: %+v", d.Stats)
	}
	if view.Len() != 2 || !view.Has(tuple.New(1, 2, 2, 1)) || !view.Has(tuple.New(2, 1, 1, 2)) {
		t.Errorf("view = %v", view)
	}
}

// TestApplyRejectsMismatchedDelta: folding a delta that deletes a
// derivation the view does not hold must surface the inconsistency.
func TestApplyRejectsMismatchedDelta(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	out, err := b.OutScheme()
	if err != nil {
		t.Fatal(err)
	}
	view := relation.NewCounted(out)
	d := &ViewDelta{Rows: []relation.CountedTuple{{Tuple: tuple.New(1, 2, 3), Count: -1}}}
	if err := Apply(view, d); err == nil {
		t.Error("deleting a missing derivation must fail")
	}
	// A tuple of another arity fails on the insert side too.
	bad := &ViewDelta{Rows: []relation.CountedTuple{{Tuple: tuple.New(7), Count: 1}}}
	if err := Apply(view, bad); err == nil {
		t.Error("an inserted tuple of the wrong arity must fail")
	}
}

// TestSelectViewDeltaNilSides covers the p = 1 case with one nil
// update side and a projection: the delta is counted over the view's
// output scheme.
func TestSelectViewDeltaNilSides(t *testing.T) {
	db := testDB(t)
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A >= 10"),
		Project:  []schema.Attribute{"B"},
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	u := delta.Update{Rel: "R",
		Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(11, 5))}
	d := selectDelta(t, b, relation.New(schema.MustScheme("A", "B")), u)
	if len(d.Rows) != 1 || d.count(tuple.New(5)) != 1 {
		t.Errorf("delta = %v, want {(5)+1} over (R.B)", d)
	}
}

// TestIndexedThreeWayFallbackOrdering drives the indexed strategy on a
// 3-way join with NO indexes, so the next-operand choice must compare
// candidate sizes (smallest-first) across multiple linked candidates.
func TestIndexedThreeWayFallbackOrdering(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S", "T")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 3), tuple.New(2, 4))
	tt := relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(3, 9))
	view, err := eval.Materialize(b, []*relation.Relation{r, s, tt}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Modify the middle relation so both R and T are old-slot
	// candidates linked to the intermediate.
	ups := []delta.Update{{Rel: "S", Inserts: relation.MustFromTuples(
		schema.MustScheme("B", "C"), tuple.New(2, 30))}}
	d, err := m.ComputeDeltaWith([]*relation.Relation{r, s, tt}, ups, noProvider{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(view, d); err != nil {
		t.Fatal(err)
	}
	// (2,30) joins r=(1,2) but finds no T partner for C=30: no change.
	want, err := eval.Materialize(b, []*relation.Relation{r,
		relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 3), tuple.New(2, 4), tuple.New(2, 30)),
		tt}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !view.Equal(want) {
		t.Errorf("view = %v, want %v", view, want)
	}
}

// mapProvider is a test IndexProvider backed by eagerly built indexes
// on every column of every relation.
type mapProvider map[string]map[int]*relation.Index

func buildAllIndexes(t *testing.T, names []string, insts map[string]*relation.Relation) mapProvider {
	t.Helper()
	p := make(mapProvider)
	for _, n := range names {
		r := insts[n]
		p[n] = make(map[int]*relation.Index)
		for pos := 0; pos < r.Scheme().Arity(); pos++ {
			ix, err := relation.BuildIndex(r, pos)
			if err != nil {
				t.Fatal(err)
			}
			p[n][pos] = ix
		}
	}
	return p
}

func (p mapProvider) Index(rel string, pos int) *relation.Index { return p[rel][pos] }

// noProvider satisfies IndexProvider but never has an index, forcing
// the pipeline through its transient hash tables.
type noProvider struct{}

func (noProvider) Index(string, int) *relation.Index { return nil }

// TestIndexedFallbackWithoutIndexes: the pipeline must still be
// correct when no usable index exists (hash-join fallback), when
// rows demand cross products, and under self-joins.
func TestIndexedFallbackWithoutIndexes(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(5, 20))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := []delta.Update{{Rel: "R", Inserts: relation.MustFromTuples(
		schema.MustScheme("A", "B"), tuple.New(7, 5))}}
	d, err := m.ComputeDeltaWith([]*relation.Relation{r, s}, ups, noProvider{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(view, d); err != nil {
		t.Fatal(err)
	}
	if view.Len() != 2 || !view.Has(tuple.New(7, 5, 20)) {
		t.Errorf("view = %v", view)
	}
	if d.Stats.IndexProbes != 0 {
		t.Errorf("no probes expected without indexes, got %d", d.Stats.IndexProbes)
	}
}

// TestIndexedCrossProductRow: a view whose operands share no join
// attribute forces the pipeline through a cross-product step.
func TestIndexedCrossProductRow(t *testing.T) {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "X", Scheme: schema.MustScheme("A")},
		&schema.RelScheme{Name: "Y", Scheme: schema.MustScheme("B")},
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "X"}, {Rel: "Y"}},
		Where:    pred.MustParse("A < B"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	x := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1), tuple.New(9))
	y := relation.MustFromTuples(schema.MustScheme("B"), tuple.New(5))
	view, err := eval.Materialize(b, []*relation.Relation{x, y}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := []delta.Update{{Rel: "Y", Inserts: relation.MustFromTuples(
		schema.MustScheme("B"), tuple.New(100))}}
	d, err := m.ComputeDeltaWith([]*relation.Relation{x, y}, ups, noProvider{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(view, d); err != nil {
		t.Fatal(err)
	}
	// Both x tuples are < 100.
	if view.Len() != 3 || !view.Has(tuple.New(9, 100)) {
		t.Errorf("view = %v", view)
	}
}

// TestIndexedSelfJoin drives the pipeline through a self-join
// with a shared update.
func TestIndexedSelfJoin(t *testing.T) {
	db := testDB(t)
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}},
		Where:    pred.MustParse("x.B = y.A"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	view, err := eval.Materialize(b, []*relation.Relation{r, r}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prov := buildAllIndexes(t, []string{"R"}, map[string]*relation.Relation{"R": r})
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ups := []delta.Update{{Rel: "R", Inserts: relation.MustFromTuples(
		schema.MustScheme("A", "B"), tuple.New(2, 1))}}
	d, err := m.ComputeDeltaWith([]*relation.Relation{r, r}, ups, prov)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(view, d); err != nil {
		t.Fatal(err)
	}
	if view.Len() != 2 || !view.Has(tuple.New(1, 2, 2, 1)) || !view.Has(tuple.New(2, 1, 1, 2)) {
		t.Errorf("view = %v", view)
	}
}

// TestIndexedProbeSkipsDeletedTuples: the persistent index holds the
// pre-state (including to-be-deleted tuples); probes must skip them.
func TestIndexedProbeSkipsDeletedTuples(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(2, 20))
	prov := buildAllIndexes(t, []string{"R", "S"}, map[string]*relation.Relation{"R": r, "S": s})
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One transaction: insert a new R tuple AND delete an S tuple.
	ups := []delta.Update{
		{Rel: "R", Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(9, 2))},
		{Rel: "S", Deletes: relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))},
	}
	d, err := m.ComputeDeltaWith([]*relation.Relation{r, s}, ups, prov)
	if err != nil {
		t.Fatal(err)
	}
	// i_r must join only the surviving S tuple (2,20); the deleted
	// (2,10) must be skipped by the probe (it would otherwise appear
	// as a bogus insert). The old view tuple (1,2,10) must be deleted.
	if len(d.Rows) != 2 || d.count(tuple.New(9, 2, 20)) != 1 || d.count(tuple.New(1, 2, 10)) != -1 {
		t.Errorf("delta = %v", d)
	}
	if d.Stats.IndexProbes == 0 {
		t.Error("expected index probes to be used")
	}
}

// TestDifferentialMatchesFullReevaluation is the headline oracle: for
// random databases, random views, and random transactions, applying
// the differential delta must equal the reference evaluator
// (internal/eval) over the post-transaction state, with and without the
// irrelevance filter, and so must Materialize. The view shapes cover
// each way the pipeline reaches an operand: an index probe, a
// self-join, a non-equi link and a cross product (no index serves
// them), an overlapping DNF, and a provider that has no index for some
// (relation, position) or none at all. With every index present, a
// view whose links are all equalities reads no base row.
func TestDifferentialMatchesFullReevaluation(t *testing.T) {
	db := testDB(t)
	names := []string{"R", "S", "T"}
	schemes := map[string]*schema.Scheme{
		"R": schema.MustScheme("A", "B"),
		"S": schema.MustScheme("B", "C"),
		"T": schema.MustScheme("C", "D"),
	}
	ops := func(rels ...string) []expr.Operand {
		out := make([]expr.Operand, len(rels))
		for i, rl := range rels {
			out[i] = expr.Operand{Rel: rl}
		}
		return out
	}
	conds := []struct {
		ops   []expr.Operand
		cond  string
		proj  []schema.Attribute
		scans bool // some link is not an equality: no index serves it
	}{
		{ops("R"), "R.A < 5", nil, false},
		{ops("R"), "R.A >= 3", []schema.Attribute{"R.B"}, false},
		{ops("R", "S"), "R.B = S.B", []schema.Attribute{"R.A", "S.C"}, false},
		{ops("R", "S"), "R.B = S.B && S.C > 3", nil, false},
		{ops("R", "S", "T"), "R.B = S.B && S.C = T.C", []schema.Attribute{"R.A", "T.D"}, false},
		{ops("R", "S"), "(R.B = S.B && R.A < 4) || (R.B = S.B && S.C > 6)", []schema.Attribute{"R.A"}, false},
		// Self-join: one update feeds both operands.
		{[]expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}}, "x.B = y.A && x.A < 6",
			[]schema.Attribute{"x.A", "y.B"}, false},
		// Non-equi link: no index serves it.
		{ops("R", "S"), "R.B < S.B && S.C > 2", []schema.Attribute{"R.A", "S.C"}, true},
		// Cross product.
		{ops("R", "T"), "R.A < 3 && T.D >= 4", nil, true},
		// Three operands projecting five attributes, with constants.
		{ops("R", "S", "T"), "R.B = S.B && S.C = T.C && R.A >= 2 && T.D < 6",
			[]schema.Attribute{"R.A", "R.B", "S.C", "T.C", "T.D"}, false},
	}
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		spec := conds[trial%len(conds)]
		b, err := expr.Bind(expr.View{
			Name: "v", Operands: spec.ops,
			Where: pred.MustParse(spec.cond), Project: spec.proj,
		}, db)
		if err != nil {
			t.Fatal(err)
		}

		// Random instances.
		instByName := make(map[string]*relation.Relation)
		for _, n := range names {
			r := relation.New(schemes[n])
			for i := 0; i < rng.Intn(15); i++ {
				_ = r.Insert(tuple.New(int64(rng.Intn(8)), int64(rng.Intn(8))))
			}
			instByName[n] = r
		}
		insts := make([]*relation.Relation, len(spec.ops))
		opRels := make([]string, len(spec.ops))
		for i, op := range spec.ops {
			insts[i] = instByName[op.Rel]
			opRels[i] = op.Rel
		}

		view, err := eval.Materialize(b, insts, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Random net updates on a random subset of the view's relations.
		var ups []delta.Update
		for _, n := range names {
			if !slices.Contains(opRels, n) || rng.Intn(3) == 0 {
				continue
			}
			inst := instByName[n]
			u := delta.Update{Rel: n,
				Inserts: relation.New(schemes[n]),
				Deletes: relation.New(schemes[n])}
			for i := 0; i < rng.Intn(5); i++ {
				tu := tuple.New(int64(rng.Intn(8)), int64(rng.Intn(8)))
				if !inst.Has(tu) {
					_ = u.Inserts.Insert(tu)
				}
			}
			for _, tu := range inst.Tuples() {
				if rng.Intn(4) == 0 {
					_ = u.Deletes.Insert(tu)
				}
			}
			if !u.IsEmpty() {
				ups = append(ups, u)
			}
		}

		// Post-state oracle.
		post := applyUpdates(t, insts, opRels, ups)
		want, err := eval.Materialize(b, post, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}

		prov := buildAllIndexes(t, names, instByName)
		// holey has no index on R's first column nor S's second.
		holey := partialProvider{p: prov, skip: map[string]int{"R": 0, "S": 1}}
		for _, c := range []struct {
			opt     Options
			prov    IndexProvider
			indexed bool // prov has every index
		}{
			{Options{}, nil, false},
			{Options{Filter: true}, nil, false},
			{Options{}, prov, true},
			{Options{Filter: true}, prov, true},
			{Options{}, holey, false},
			{Options{}, noProvider{}, false},
		} {
			m, err := NewMaintainer(b, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := view.Clone()
			d, err := m.ComputeDeltaWith(insts, ups, c.prov)
			if err != nil {
				t.Fatalf("trial %d cond %q: %v", trial, spec.cond, err)
			}
			if err := Apply(got, d); err != nil {
				t.Fatalf("trial %d cond %q opts %+v provider %T: Apply: %v", trial, spec.cond, c.opt, c.prov, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d cond %q opts %+v provider %T:\n got %v\nwant %v", trial, spec.cond, c.opt, c.prov, got, want)
			}
			if c.indexed && !spec.scans && d.Stats.BaseRowsScanned != 0 {
				t.Fatalf("trial %d cond %q: every link is indexed, yet %d base rows were scanned",
					trial, spec.cond, d.Stats.BaseRowsScanned)
			}
		}
		m, err := NewMaintainer(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		postByName := maps.Clone(instByName)
		for i, n := range opRels {
			postByName[n] = post[i]
		}
		postProv := buildAllIndexes(t, names, postByName)
		for _, p := range []IndexProvider{nil, postProv, partialProvider{p: postProv, skip: map[string]int{"R": 0, "S": 1}}} {
			view, _, err := m.Materialize(post, p)
			if err != nil {
				t.Fatal(err)
			}
			if !view.Equal(want) {
				t.Fatalf("trial %d cond %q provider %T: Materialize = %v, want %v", trial, spec.cond, p, view, want)
			}
		}
	}
}

// partialProvider is p without the index of each relation in skip on
// the given position.
type partialProvider struct {
	p    IndexProvider
	skip map[string]int
}

func (p partialProvider) Index(rel string, pos int) *relation.Index {
	if skip, ok := p.skip[rel]; ok && skip == pos {
		return nil
	}
	return p.p.Index(rel, pos)
}

// TestIndexedStatsHandComputed pins the indexed pipeline's counters on
// a case small enough to count by hand. V = R ⋈ S ⋈ T over
// R = {(1,2)}, S = {(2,3)}, T = {(3,4)}, with (5,2) inserted into R and
// (9,9) into T (k = 2, three rows):
//
//	R delta, T old:   (5,2) probes S on B=2 → (2,3) probes T on C=3 →
//	                  (3,4): completes; 2 steps, 2 probes.
//	R old, T delta:   (9,9) probes S on C=9, finds nothing: pruned
//	                  midway; 1 step, 1 probe.
//	both delta:       (5,2) probes S → (2,3) reaches T's delta slot,
//	                  which holds no C=3: pruned; 2 steps, 1 probe.
//
// So RowsEvaluated = 1, JoinSteps = 5, IndexProbes = 4, and the view
// gains (5,2,3,4).
func TestIndexedStatsHandComputed(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S", "T")
	insts := map[string]*relation.Relation{
		"R": relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2)),
		"S": relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 3)),
		"T": relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(3, 4)),
	}
	ups := []delta.Update{
		{Rel: "R", Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(5, 2))},
		{Rel: "T", Inserts: relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(9, 9))},
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.ComputeDeltaWith([]*relation.Relation{insts["R"], insts["S"], insts["T"]}, ups,
		buildAllIndexes(t, []string{"R", "S", "T"}, insts))
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{ModifiedOperands: 2, RowsEvaluated: 1, JoinSteps: 5, IndexProbes: 4, DeltaInserts: 1}
	if d.Stats != want {
		t.Errorf("stats = %+v, want %+v", d.Stats, want)
	}
	if len(d.Rows) != 1 || d.count(tuple.New(5, 2, 3, 4)) != 1 {
		t.Errorf("delta = %v, want {(5, 2, 3, 4)+1}", d)
	}
}

// TestInstanceIndexesServeWithoutProvider: with no provider, the
// pipeline probes the instances' own indexes and does the very work a
// provider serving the same indexes does; a provider that has none
// overrides them.
func TestInstanceIndexesServeWithoutProvider(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S", "T")
	names := []string{"R", "S", "T"}
	insts := map[string]*relation.Relation{
		"R": relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2), tuple.New(7, 2)),
		"S": relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 3), tuple.New(2, 8)),
		"T": relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(3, 4), tuple.New(8, 1)),
	}
	ups := []delta.Update{
		{Rel: "R", Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(5, 2))},
		{Rel: "T", Deletes: relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(8, 1))},
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, own := make([]*relation.Relation, len(names)), make([]*relation.Relation, len(names))
	for i, n := range names {
		plain[i], own[i] = insts[n], insts[n].Clone()
		for pos := 0; pos < own[i].Scheme().Arity(); pos++ {
			if err := own[i].AddIndex(pos); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := m.ComputeDeltaWith(plain, ups, buildAllIndexes(t, names, insts))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.ComputeDelta(own, ups)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats || !slices.EqualFunc(got.Rows, want.Rows, sameRow) {
		t.Errorf("own indexes: %+v %v, provider: %+v %v", got.Stats, got, want.Stats, want)
	}
	if got.Stats.IndexProbes == 0 || got.Stats.BaseRowsScanned != 0 {
		t.Errorf("own indexes: stats %+v, want probes and no base row read", got.Stats)
	}
	none, err := m.ComputeDeltaWith(own, ups, noProvider{})
	if err != nil {
		t.Fatal(err)
	}
	if none.Stats.IndexProbes != 0 || none.Stats.BaseRowsScanned == 0 || !slices.EqualFunc(none.Rows, want.Rows, sameRow) {
		t.Errorf("provider without indexes: stats %+v, want transient tables over base rows", none.Stats)
	}
}

// TestMaterializeSingleDeltaRow pins Materialize's counters by hand.
// V = R ⋈ S over R = {(1,2), (3,4)} and S = {(2,10), (2,20), (4,30)}:
// R is the smaller operand, so its two tuples are the row's delta slot
// and S is old. Each R tuple reaches S (one step) and finds its
// partners, giving three view tuples in one completed row. With S's
// index on B that is two probes and only R's two rows read; without
// it, S's three rows are read into a transient table as well.
func TestMaterializeSingleDeltaRow(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	insts := map[string]*relation.Relation{
		"R": relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2), tuple.New(3, 4)),
		"S": relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10), tuple.New(2, 20), tuple.New(4, 30)),
	}
	ops := []*relation.Relation{insts["R"], insts["S"]}
	want, err := eval.Materialize(b, ops, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prov  IndexProvider
		stats Stats
	}{
		{buildAllIndexes(t, []string{"R", "S"}, insts),
			Stats{ModifiedOperands: 1, RowsEvaluated: 1, JoinSteps: 1, IndexProbes: 2, BaseRowsScanned: 2, DeltaInserts: 3}},
		{nil, Stats{ModifiedOperands: 1, RowsEvaluated: 1, JoinSteps: 1, BaseRowsScanned: 5, DeltaInserts: 3}},
	} {
		view, stats, err := m.Materialize(ops, c.prov)
		if err != nil {
			t.Fatal(err)
		}
		if !view.Equal(want) {
			t.Errorf("provider %T: view = %v, want %v", c.prov, view, want)
		}
		if stats != c.stats {
			t.Errorf("provider %T: stats = %+v, want %+v", c.prov, stats, c.stats)
		}
	}
	if _, _, err := m.Materialize(ops[:1], nil); err == nil {
		t.Error("instance count mismatch must fail")
	}
}
