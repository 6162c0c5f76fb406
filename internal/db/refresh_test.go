package db

import (
	"fmt"
	"testing"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/tuple"
)

// oneSidedFixture is an engine with R(A, B) and S(C, D), n rows each,
// and a deferred 2-way equi-join view B = C over them.
func oneSidedFixture(tb testing.TB, n int) (*Engine, expr.View) {
	tb.Helper()
	e := New()
	if err := e.CreateRelation("R", "A", "B"); err != nil {
		tb.Fatal(err)
	}
	if err := e.CreateRelation("S", "C", "D"); err != nil {
		tb.Fatal(err)
	}
	var load delta.Tx
	for i := 0; i < n; i++ {
		load.Insert("R", tuple.New(int64(i), int64(i)))
		load.Insert("S", tuple.New(int64(i), int64(-i)))
	}
	if _, err := e.Execute(&load); err != nil {
		tb.Fatal(err)
	}
	def := expr.View{Name: "j", Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}}, Where: pred.MustParse("B = C")}
	if err := e.CreateView(def, ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		tb.Fatal(err)
	}
	return e, def
}

// backlogR commits ten single-row inserts into R, each joining one S
// row; from is the first new A value.
func backlogR(tb testing.TB, e *Engine, n, from int) {
	tb.Helper()
	for j := 0; j < 10; j++ {
		var tx delta.Tx
		tx.Insert("R", tuple.New(int64(from+j), int64((from+j)%n)))
		if _, err := e.Execute(&tx); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestOneSidedRefreshReadsNoBaseRow: a deferred view's backlog that
// touched only R is refreshed by probing S's index, so the refresh
// reads no base row however large S is — work ∝ change. A backlog that
// touched both sides reads none either: the refresh rebuilds the state
// the backlog started from as clones of the bases, which carry their
// indexes.
func TestOneSidedRefreshReadsNoBaseRow(t *testing.T) {
	const n = 2_000
	e, def := oneSidedFixture(t, n)
	backlogR(t, e, n, n)
	if err := e.RefreshView("j"); err != nil {
		t.Fatal(err)
	}
	st, err := e.ViewStats("j")
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseRowsScanned != 0 || st.JoinSteps == 0 || st.DeltaInserts != 10 {
		t.Errorf("refresh stats = %+v, want 10 inserts, some join step, no base row read", st)
	}
	got, _ := e.View("j")
	if want := referenceView(t, e, def); !got.Equal(want) {
		t.Errorf("refreshed view diverged from the reference evaluator")
	}

	// Two-sided: ten more R rows, and ten S rows that each join one old
	// and one new R row.
	backlogR(t, e, n, n+10)
	var tx delta.Tx
	for j := int64(0); j < 10; j++ {
		tx.Insert("S", tuple.New((n+10+j)%n, 1000+j)).Delete("S", tuple.New(j+100, -(j+100)))
	}
	if _, err := e.Execute(&tx); err != nil {
		t.Fatal(err)
	}
	if err := e.RefreshView("j"); err != nil {
		t.Fatal(err)
	}
	two, err := e.ViewStats("j")
	if err != nil {
		t.Fatal(err)
	}
	if two.BaseRowsScanned != 0 || two.JoinSteps <= st.JoinSteps || two.DeltaDeletes == 0 {
		t.Errorf("two-sided refresh stats = %+v after %+v, want join steps, deletes and no base row read", two, st)
	}
	got, _ = e.View("j")
	if want := referenceView(t, e, def); !got.Equal(want) {
		t.Errorf("two-sided refresh diverged from the reference evaluator")
	}
}

// BenchmarkOneSidedRefresh times the refresh of a 10-row backlog on
// one side of a 2-way equi-join, across base sizes: flat in n when the
// untouched side's index serves the refresh.
func BenchmarkOneSidedRefresh(b *testing.B) {
	for _, n := range []int{5_000, 20_000, 80_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e, _ := oneSidedFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				backlogR(b, e, n, n+10*i)
				b.StartTimer()
				if err := e.RefreshView("j"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
