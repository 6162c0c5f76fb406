package db

import (
	"math/rand"
	"strings"
	"testing"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if err := e.CreateRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "B", "C"); err != nil {
		t.Fatal(err)
	}
	return e
}

func joinViewDef(t *testing.T, e *Engine, name string) expr.View {
	t.Helper()
	v, err := expr.NaturalJoin(name, e.Scheme(), "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// referenceView evaluates def with the reference evaluator
// (internal/eval) over the engine's current relations: an oracle that
// shares no code with the engine's own §5 evaluator.
func referenceView(t *testing.T, e *Engine, def expr.View) *relation.Counted {
	t.Helper()
	b, err := expr.Bind(def, e.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]*relation.Relation, len(b.Operands))
	for i, op := range b.Operands {
		if insts[i], err = e.Relation(op.Rel); err != nil {
			t.Fatal(err)
		}
	}
	v, err := eval.Materialize(b, insts, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func exec(t *testing.T, e *Engine, tx *delta.Tx) TxResult {
	t.Helper()
	res, err := e.Execute(tx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCreateRelationAndDuplicates(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateRelation("R", "X"); err == nil {
		t.Error("duplicate relation must fail")
	}
	if err := e.CreateRelation("Bad", "A", "A"); err == nil {
		t.Error("bad scheme must fail")
	}
	if got := e.Relations(); len(got) != 2 || got[0] != "R" {
		t.Errorf("Relations = %v", got)
	}
	if _, err := e.Relation("NOPE"); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestImmediateViewMaintenance(t *testing.T) {
	e := newEngine(t)
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 10))
	exec(t, e, &tx)

	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	v, err := e.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 || !v.Has(tuple.New(1, 2, 10)) {
		t.Fatalf("initial view = %v", v)
	}

	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(7, 2)).Delete("S", tuple.New(2, 10)).Insert("S", tuple.New(2, 99))
	res := exec(t, e, &tx2)
	if res.ViewsRefreshed != 1 {
		t.Errorf("ViewsRefreshed = %d", res.ViewsRefreshed)
	}
	v, _ = e.View("v")
	want := []tuple.Tuple{tuple.New(1, 2, 99), tuple.New(7, 2, 99)}
	if v.Len() != 2 || !v.Has(want[0]) || !v.Has(want[1]) {
		t.Errorf("view = %v, want %v", v, want)
	}
	st, err := e.ViewStats("v")
	if err != nil {
		t.Fatal(err)
	}
	if st.Transactions != 1 || st.Refreshes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestViewUntouchedByForeignTx(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateRelation("Z", "Q"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("Z", tuple.New(1))
	res := exec(t, e, &tx)
	if res.ViewsRefreshed != 0 || res.ViewsDeferred != 0 {
		t.Errorf("unrelated tx refreshed views: %+v", res)
	}
	st, _ := e.ViewStats("v")
	if st.Transactions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDeferredSnapshotRefresh(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "snap"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	// Three transactions accumulate; the view stays stale.
	for i := 0; i < 3; i++ {
		var tx delta.Tx
		tx.Insert("R", tuple.New(int64(i), 2)).Insert("S", tuple.New(2, int64(10+i)))
		res := exec(t, e, &tx)
		if res.ViewsDeferred != 1 || res.ViewsRefreshed != 0 {
			t.Fatalf("tx %d: %+v", i, res)
		}
	}
	v, _ := e.View("snap")
	if v.Len() != 0 {
		t.Fatalf("deferred view refreshed too early: %v", v)
	}
	st, _ := e.ViewStats("snap")
	if st.PendingTx != 3 {
		t.Errorf("PendingTx = %d", st.PendingTx)
	}

	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	v, _ = e.View("snap")
	// 3 R-tuples × 3 S-tuples, all joining on B=2.
	if v.Len() != 9 {
		t.Errorf("after refresh view = %v", v)
	}
	st, _ = e.ViewStats("snap")
	if st.PendingTx != 0 || st.Refreshes != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Idempotent.
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	// Churn that nets out must leave the snapshot unchanged on refresh.
	var tx delta.Tx
	tx.Insert("R", tuple.New(50, 50)).Delete("R", tuple.New(50, 50))
	exec(t, e, &tx)
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	v2, _ := e.View("snap")
	if !v2.Equal(v) {
		t.Errorf("no-op churn changed snapshot: %v vs %v", v2, v)
	}
}

func TestDeferredRefreshMatchesRecompute(t *testing.T) {
	e := newEngine(t)
	cond := pred.MustParse("R.B = S.B && S.C > 5")
	vdef := expr.View{
		Name:     "snap",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    cond,
		Project:  []schema.Attribute{"R.A", "S.C"},
	}
	if err := e.CreateView(vdef, ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		var tx delta.Tx
		for j := 0; j < 1+rng.Intn(4); j++ {
			tu := tuple.New(int64(rng.Intn(6)), int64(rng.Intn(6)))
			if rng.Intn(3) == 0 {
				tx.Delete("R", tu)
			} else {
				tx.Insert("R", tu)
			}
			su := tuple.New(int64(rng.Intn(6)), int64(rng.Intn(12)))
			if rng.Intn(3) == 0 {
				tx.Delete("S", su)
			} else {
				tx.Insert("S", su)
			}
		}
		exec(t, e, &tx)
		if rng.Intn(4) == 0 {
			if err := e.RefreshView("snap"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	got, _ := e.View("snap")
	if want := referenceView(t, e, vdef); !got.Equal(want) {
		t.Errorf("snapshot = %v, recompute = %v", got, want)
	}
}

func TestPolicyRecomputeImmediate(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{Policy: PolicyRecompute}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	v, _ := e.View("v")
	if v.Len() != 1 {
		t.Errorf("view = %v", v)
	}
	st, _ := e.ViewStats("v")
	if st.Recomputes != 1 || st.Refreshes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPolicyRecomputeDeferred(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}, Policy: PolicyRecompute}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	if err := e.RefreshView("v"); err != nil {
		t.Fatal(err)
	}
	v, _ := e.View("v")
	if v.Len() != 1 {
		t.Errorf("view = %v", v)
	}
	st, _ := e.ViewStats("v")
	if st.Recomputes != 1 || st.PendingTx != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPolicyAdaptiveSwitches: small deltas go differential, deltas
// past the threshold trigger recompute — with identical results.
func TestPolicyAdaptiveSwitches(t *testing.T) {
	e := newEngine(t)
	// Seed a reasonably sized base.
	var seed delta.Tx
	for i := int64(0); i < 100; i++ {
		seed.Insert("R", tuple.New(i, i%10))
		seed.Insert("S", tuple.New(i%10, i))
	}
	exec(t, e, &seed)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{Policy: PolicyAdaptive}); err != nil {
		t.Fatal(err)
	}
	// Small transaction: differential.
	var small delta.Tx
	small.Insert("R", tuple.New(500, 3))
	exec(t, e, &small)
	st, _ := e.ViewStats("v")
	if st.Refreshes != 1 || st.Recomputes != 0 {
		t.Errorf("small tx stats = %+v, want differential", st)
	}
	// Bulk transaction (> 25%% of base): recompute.
	var bulk delta.Tx
	for i := int64(1000); i < 1200; i++ {
		bulk.Insert("R", tuple.New(i, i%10))
	}
	exec(t, e, &bulk)
	st, _ = e.ViewStats("v")
	if st.Recomputes != 1 {
		t.Errorf("bulk tx stats = %+v, want a recompute", st)
	}
	// Contents must match a recompute-only twin regardless of path.
	twin := joinViewDef(t, e, "w")
	if err := e.CreateView(twin, ViewConfig{Policy: PolicyRecompute}); err != nil {
		t.Fatal(err)
	}
	a, _ := e.View("v")
	b, _ := e.View("w")
	if !a.Equal(b) {
		t.Error("adaptive view diverged from recompute twin")
	}
}

// TestPolicyAdaptiveDeferred: the deferred path consults the same cost
// model at refresh time.
func TestPolicyAdaptiveDeferred(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}, Policy: PolicyAdaptive}); err != nil {
		t.Fatal(err)
	}
	// Base is empty, so any pending delta exceeds the ratio →
	// recompute.
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	if err := e.RefreshView("v"); err != nil {
		t.Fatal(err)
	}
	st, _ := e.ViewStats("v")
	if st.Recomputes != 1 {
		t.Errorf("stats = %+v, want recompute on empty base", st)
	}
	v, _ := e.View("v")
	if v.Len() != 1 {
		t.Errorf("view = %v", v)
	}
}

func TestRelevantCachedCheckers(t *testing.T) {
	e := newEngine(t)
	v := expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("R.B = S.B && R.A < 10"),
	}
	if err := e.CreateView(v, ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Relevant("v", "R", tuple.New(5, 1))
	if err != nil || !rel {
		t.Errorf("Relevant(5,1) = %v, %v", rel, err)
	}
	rel, err = e.Relevant("v", "R", tuple.New(50, 1))
	if err != nil || rel {
		t.Errorf("Relevant(50,1) = %v, %v", rel, err)
	}
	// Repeat calls reuse the cached checker (stats accumulate on it).
	for i := 0; i < 10; i++ {
		if _, err := e.Relevant("v", "R", tuple.New(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Relevant("v", "Z", tuple.New(1)); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := e.Relevant("zzz", "R", tuple.New(1, 2)); err == nil {
		t.Error("unknown view must fail")
	}
	if _, err := e.Relevant("v", "R", tuple.New(1)); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestExplain(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{
		When: RefreshSpec{Kind: RefreshOnDemand}, Policy: PolicyAdaptive,
		Maint: diffeval.Options{Filter: true},
	}); err != nil {
		t.Fatal(err)
	}
	out, err := e.Explain("v")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"view v",
		"R = R(A, B)",
		"R.B = S.B",
		"deferred",
		"adaptive",
		"pre-filter ON",
		"indexes: R.B, S.B",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if _, err := e.Explain("zzz"); err == nil {
		t.Error("unknown view must fail")
	}
	// Default config renders too.
	if err := e.CreateView(joinViewDef(t, e, "w"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	out, err = e.Explain("w")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "immediate") || !strings.Contains(out, "differential") {
		t.Errorf("default Explain:\n%s", out)
	}
}

func TestCreateViewErrors(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err == nil {
		t.Error("duplicate view must fail")
	}
	if err := e.CreateView(joinViewDef(t, e, "R"), ViewConfig{}); err == nil {
		t.Error("view shadowing a relation must fail")
	}
	if err := e.CreateRelation("v", "X"); err == nil {
		t.Error("relation shadowing a view must fail")
	}
	bad := expr.View{Name: "w", Operands: []expr.Operand{{Rel: "NOPE"}}}
	if err := e.CreateView(bad, ViewConfig{}); err == nil {
		t.Error("unbindable view must fail")
	}
}

func TestDropView(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropView("v"); err == nil {
		t.Error("double drop must fail")
	}
	if _, err := e.View("v"); err == nil {
		t.Error("dropped view must be gone")
	}
	if got := e.Views(); len(got) != 0 {
		t.Errorf("Views = %v", got)
	}
}

func TestUnknownViewAccessors(t *testing.T) {
	e := newEngine(t)
	if _, err := e.View("x"); err == nil {
		t.Error("View(x) must fail")
	}
	if _, err := e.ViewStats("x"); err == nil {
		t.Error("ViewStats(x) must fail")
	}
	if _, err := e.ReadView("x"); err == nil {
		t.Error("ReadView(x) must fail")
	}
	if err := e.RefreshView("x"); err == nil {
		t.Error("RefreshView(x) must fail")
	}
}

func TestExecuteEmptyAndUnknown(t *testing.T) {
	e := newEngine(t)
	var tx delta.Tx
	res := exec(t, e, &tx)
	if len(res.Updates) != 0 {
		t.Errorf("empty tx: %+v", res)
	}
	var bad delta.Tx
	bad.Insert("NOPE", tuple.New(1))
	if _, err := e.Execute(&bad); err == nil {
		t.Error("unknown relation must fail")
	}
	// Failed transactions must leave state untouched.
	r, _ := e.Relation("R")
	if r.Len() != 0 {
		t.Error("failed tx mutated base relation")
	}
}

func TestRefreshAllAndQueryIsolation(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v1"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "v2"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	if err := e.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"v1", "v2"} {
		v, _ := e.View(n)
		if v.Len() != 1 {
			t.Errorf("%s = %v", n, v)
		}
	}
	// View and Relation results are immutable snapshots: a later
	// commit publishes a new snapshot instead of mutating them, so a
	// previously returned result never changes.
	v, _ := e.View("v1")
	r, _ := e.Relation("R")
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(9, 2)).Insert("S", tuple.New(77, 77))
	exec(t, e, &tx2)
	if err := e.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Errorf("View result mutated by a later commit: %v", v)
	}
	if r.Has(tuple.New(9, 2)) || r.Len() != 1 {
		t.Errorf("Relation result mutated by a later commit: %v", r)
	}
	if v2, _ := e.View("v1"); v2.Len() != 2 {
		t.Errorf("fresh View read missed the commit: %v", v2)
	}
	if r2, _ := e.Relation("R"); !r2.Has(tuple.New(9, 2)) {
		t.Error("fresh Relation read missed the commit")
	}
}

// TestImmediateMatchesRecomputePolicy runs the same workload through a
// differential view and a recompute view and demands identical
// contents after every transaction.
func TestImmediateMatchesRecomputePolicy(t *testing.T) {
	e := newEngine(t)
	vd := expr.View{
		Name:     "vd",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("R.B = S.B && R.A <= S.C + 2"),
		Project:  []schema.Attribute{"R.A", "S.C"},
	}
	vr := vd
	vr.Name = "vr"
	if err := e.CreateView(vd, ViewConfig{Maint: diffeval.Options{Filter: true}}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(vr, ViewConfig{Policy: PolicyRecompute}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(404))
	for i := 0; i < 40; i++ {
		var tx delta.Tx
		for j := 0; j < 1+rng.Intn(5); j++ {
			rel := "R"
			if rng.Intn(2) == 0 {
				rel = "S"
			}
			tu := tuple.New(int64(rng.Intn(7)), int64(rng.Intn(7)))
			if rng.Intn(3) == 0 {
				tx.Delete(rel, tu)
			} else {
				tx.Insert(rel, tu)
			}
		}
		exec(t, e, &tx)
		a, _ := e.View("vd")
		b, _ := e.View("vr")
		if !a.Equal(b) {
			t.Fatalf("tx %d: differential %v != recompute %v", i, a, b)
		}
	}
	st, _ := e.ViewStats("vd")
	if st.Refreshes == 0 {
		t.Error("differential view never refreshed")
	}
}
