package eval

import (
	"math/rand"
	"testing"

	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func testDB(t *testing.T) *schema.Database {
	t.Helper()
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("C", "D")},
		&schema.RelScheme{Name: "T", Scheme: schema.MustScheme("E", "F")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func bindView(t *testing.T, db *schema.Database, v expr.View) *expr.Bound {
	t.Helper()
	b, err := expr.Bind(v, db)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// naiveMaterialize is the oracle: brute-force cross product, condition
// evaluation via the interpreter, counted projection.
func naiveMaterialize(t *testing.T, b *expr.Bound, insts []*relation.Relation) *relation.Counted {
	t.Helper()
	out, err := b.OutScheme()
	if err != nil {
		t.Fatal(err)
	}
	view := relation.NewCounted(out)
	var rec func(prefix tuple.Tuple, i int)
	rec = func(prefix tuple.Tuple, i int) {
		if i == len(insts) {
			ok, err := b.Where.Eval(pred.BindTuple(b.Joint, prefix))
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if err := view.Add(prefix.Project(b.ProjPos), 1); err != nil {
					t.Fatal(err)
				}
			}
			return
		}
		insts[i].Each(func(tu tuple.Tuple) {
			rec(prefix.Concat(tu), i+1)
		})
	}
	rec(tuple.New(), 0)
	return view
}

// TestMaterializeExample41 evaluates the paper's Example 4.1 view:
// v = π_{A,D}(σ_{A<10 ∧ C>5 ∧ B=C}(r × s)) over the paper's instances,
// expecting v = {(1,20), (2,15)} … the paper lists (5,10)? No: the
// paper's printed view contains (5, 20)-style rows; we verify against
// the brute-force oracle and spot-check membership computed by hand.
func TestMaterializeExample41(t *testing.T) {
	db := testDB(t)
	b := bindView(t, db, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("A < 10 && C > 5 && B = C"),
		Project:  []schema.Attribute{"A", "D"},
	})
	r := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 2), tuple.New(5, 10), tuple.New(10, 20))
	s := relation.MustFromTuples(schema.MustScheme("C", "D"),
		tuple.New(2, 10), tuple.New(10, 20), tuple.New(12, 15))

	got, err := Materialize(b, []*relation.Relation{r, s}, Options{Greedy: true})
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	// Hand check: (1,2)×(2,10) fails C>5; (5,10)×(10,20) passes → (5,20);
	// (10,…) fails A<10; (1,2)×(12,15), (5,10)×(12,15) fail B=C.
	if got.Len() != 1 || got.Count(tuple.New(5, 20)) != 1 {
		t.Errorf("view = %v, want {(5, 20)×1}", got)
	}
	want := naiveMaterialize(t, b, []*relation.Relation{r, s})
	if !got.Equal(want) {
		t.Errorf("materialize = %v, oracle = %v", got, want)
	}
}

func TestMaterializeSingleOperandSelectProject(t *testing.T) {
	db := testDB(t)
	b := bindView(t, db, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A >= 2"),
		Project:  []schema.Attribute{"B"},
	})
	r := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 10), tuple.New(2, 10), tuple.New(3, 10), tuple.New(4, 20))
	got, err := Materialize(b, []*relation.Relation{r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count(tuple.New(10)) != 2 || got.Count(tuple.New(20)) != 1 {
		t.Errorf("view = %v", got)
	}
}

func TestMaterializeDisjunctionNoDoubleCount(t *testing.T) {
	db := testDB(t)
	// A tuple satisfying both disjuncts must count once.
	b := bindView(t, db, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A > 0 || B > 0"),
		Project:  []schema.Attribute{"A", "B"},
	})
	r := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 1), tuple.New(1, -5), tuple.New(-5, -5))
	got, err := Materialize(b, []*relation.Relation{r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count(tuple.New(1, 1)) != 1 {
		t.Errorf("double-counted disjuncts: %v", got)
	}
	if got.Len() != 2 {
		t.Errorf("view = %v", got)
	}
}

func TestMaterializeCrossOperandInequality(t *testing.T) {
	db := testDB(t)
	// A non-equality cross-operand atom cannot be a hash join; it must
	// be applied as a post-join filter.
	b := bindView(t, db, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("A < C"),
	})
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 0), tuple.New(5, 0))
	s := relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(3, 0))
	got, err := Materialize(b, []*relation.Relation{r, s}, Options{Greedy: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Has(tuple.New(1, 0, 3, 0)) {
		t.Errorf("view = %v", got)
	}
}

func TestMaterializeEquiJoinWithOffsetAtom(t *testing.T) {
	db := testDB(t)
	// B = C + 5 has a nonzero offset: applied as filter, not join key.
	b := bindView(t, db, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("B = C + 5"),
	})
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 15))
	s := relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(10, 0), tuple.New(11, 0))
	got, err := Materialize(b, []*relation.Relation{r, s}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Has(tuple.New(1, 15, 10, 0)) {
		t.Errorf("view = %v", got)
	}
}

func TestMaterializeThreeWayJoin(t *testing.T) {
	db := testDB(t)
	b := bindView(t, db, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}, {Rel: "T"}},
		Where:    pred.MustParse("B = C && D = E"),
		Project:  []schema.Attribute{"A", "F"},
	})
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 100), tuple.New(2, 200))
	s := relation.MustFromTuples(schema.MustScheme("C", "D"), tuple.New(100, 7), tuple.New(200, 8))
	tt := relation.MustFromTuples(schema.MustScheme("E", "F"), tuple.New(7, 70), tuple.New(9, 90))
	for _, greedy := range []bool{false, true} {
		got, err := Materialize(b, []*relation.Relation{r, s, tt}, Options{Greedy: greedy})
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 || got.Count(tuple.New(1, 70)) != 1 {
			t.Errorf("greedy=%v view = %v", greedy, got)
		}
	}
}

func TestEvaluateInstanceCountMismatch(t *testing.T) {
	db := testDB(t)
	b := bindView(t, db, expr.View{Name: "v", Operands: []expr.Operand{{Rel: "R"}}})
	if _, err := Materialize(b, nil, Options{}); err == nil {
		t.Error("missing instances must fail")
	}
}

func TestMaterializeSchemeMismatch(t *testing.T) {
	db := testDB(t)
	b := bindView(t, db, expr.View{Name: "v", Operands: []expr.Operand{{Rel: "R"}}})
	wrong := relation.New(schema.MustScheme("X"))
	if _, err := Materialize(b, []*relation.Relation{wrong}, Options{}); err == nil {
		t.Error("wrong instance scheme must fail")
	}
}

// TestMaterializeAgainstOracleRandom fuzzes random instances and
// conditions, comparing the reference evaluator with the brute-force
// oracle; Greedy must change nothing.
func TestMaterializeAgainstOracleRandom(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(2026))
	conds := []string{
		"B = C",
		"B = C && A < D",
		"A < 3 || D > 7",
		"B = C && (A < 2 || D >= 5)",
		"A <= C + 2",
		"true",
		"A > 5 && A < 3",
		"A != D && B = C",
	}
	for trial := 0; trial < 60; trial++ {
		cond := conds[trial%len(conds)]
		b := bindView(t, db, expr.View{
			Name:     "v",
			Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
			Where:    pred.MustParse(cond),
			Project:  []schema.Attribute{"A", "D"},
		})
		mk := func(n int) *relation.Relation {
			r := relation.New(schema.MustScheme("A", "B"))
			for i := 0; i < n; i++ {
				_ = r.Insert(tuple.New(int64(rng.Intn(8)), int64(rng.Intn(8))))
			}
			return r
		}
		mkS := func(n int) *relation.Relation {
			r := relation.New(schema.MustScheme("C", "D"))
			for i := 0; i < n; i++ {
				_ = r.Insert(tuple.New(int64(rng.Intn(8)), int64(rng.Intn(8))))
			}
			return r
		}
		r, s := mk(rng.Intn(12)), mkS(rng.Intn(12))
		want := naiveMaterialize(t, b, []*relation.Relation{r, s})
		for _, greedy := range []bool{false, true} {
			got, err := Materialize(b, []*relation.Relation{r, s}, Options{Greedy: greedy})
			if err != nil {
				t.Fatalf("cond %q: %v", cond, err)
			}
			if !got.Equal(want) {
				t.Fatalf("cond %q greedy=%v:\n got %v\nwant %v\nr=%v s=%v", cond, greedy, got, want, r, s)
			}
		}
	}
}

// TestMaterializeSelfJoinThreeOperandsRandom covers what the 2-operand
// fuzz cannot: a self-join, a hash link to an operand other than the
// one just before, an operand linked to nothing earlier (a scan), and a
// DNF whose conjuncts link different operand pairs.
func TestMaterializeSelfJoinThreeOperandsRandom(t *testing.T) {
	db := testDB(t)
	rng := rand.New(rand.NewSource(7))
	conds := []string{
		"x.B = C && y.A = x.A",
		"y.A = C && x.B < D",
		"x.B = y.A && D = x.A",
		"(x.B = C && y.B = D) || (x.A = y.B && C < 4)",
		"x.A != y.A && x.B = C + 1",
	}
	for trial := 0; trial < 40; trial++ {
		cond := conds[trial%len(conds)]
		b := bindView(t, db, expr.View{
			Name:     "v",
			Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "S"}, {Rel: "R", Alias: "y"}},
			Where:    pred.MustParse(cond),
			Project:  []schema.Attribute{"x.A", "D", "y.B"},
		})
		mk := func(s *schema.Scheme, n int) *relation.Relation {
			r := relation.New(s)
			for i := 0; i < n; i++ {
				_ = r.Insert(tuple.New(int64(rng.Intn(6)), int64(rng.Intn(6))))
			}
			return r
		}
		r, s := mk(schema.MustScheme("A", "B"), rng.Intn(10)), mk(schema.MustScheme("C", "D"), rng.Intn(10))
		insts := []*relation.Relation{r, s, r}
		want := naiveMaterialize(t, b, insts)
		got, err := Materialize(b, insts, Options{})
		if err != nil {
			t.Fatalf("cond %q: %v", cond, err)
		}
		if !got.Equal(want) {
			t.Fatalf("cond %q:\n got %v\nwant %v\nr=%v s=%v", cond, got, want, r, s)
		}
	}
}
