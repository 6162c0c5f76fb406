package db

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// memoEngine is R(A,B), S(B,C), T(X,Y) with an immediate join view v,
// a deferred selection d over R, and an immediate selection t over T.
func memoEngine(t *testing.T) (*Engine, *fakeClock) {
	t.Helper()
	e, fc := newFakeClockEngine(t)
	if err := e.CreateRelation("T", "X", "Y"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	d := expr.View{Name: "d", Operands: []expr.Operand{{Rel: "R"}}, Where: pred.MustParse("A < 100")}
	if err := e.CreateView(d, ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	tv := expr.View{Name: "t", Operands: []expr.Operand{{Rel: "T"}}, Where: pred.MustParse("X < 100")}
	if err := e.CreateView(tv, ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	return e, fc
}

// checkMemoInvariant asserts that every memo in s is reachable only
// from snapViews over the data pointer it was made for, and that going
// from prev to s a view kept its memo exactly when it kept its data.
func checkMemoInvariant(t *testing.T, step string, prev, s *Snapshot) {
	t.Helper()
	for name, sv := range s.views {
		if sv.memo == nil || sv.memo.data != sv.data {
			t.Fatalf("%s: view %s: memo not built for its snapView's data", step, name)
		}
		old := prev.views[name]
		if old == nil {
			continue
		}
		if same := old.data == sv.data; same != (old.memo == sv.memo) {
			t.Fatalf("%s: view %s: data kept %v but memo kept %v", step, name, same, old.memo == sv.memo)
		}
	}
}

// TestViewMemoRenderedOncePerVersion: a view version is rendered if
// and only if its data pointer changed — commits that do not touch the
// view, a deferred view's growing backlog and a policy change keep the
// memo; a touching commit, a refresh, a MaxStale read that refreshes,
// and drop + re-create render again. The read counter agrees.
func TestViewMemoRenderedOncePerVersion(t *testing.T) {
	e, fc := memoEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	renders := map[string]int{}
	read := func(name string) []byte {
		t.Helper()
		v, err := e.ReadView(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := v.JSON(func(rows []relation.CountedTuple, schema []string) []byte {
			renders[name]++
			return []byte(fmt.Sprint(rows, schema))
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reads := func(result string) int64 {
		return int64(series(t, reg, "mview_view_reads_total", map[string]string{"result": result}).Value)
	}
	steps := []struct {
		name string
		do   func()
		want map[string]int // renders per view after the step
	}{
		{"first reads", func() {}, map[string]int{"v": 1, "d": 1, "t": 1}},
		{"commit touching v and d's backlog", func() { stageBacklog(t, e, 1, 2) },
			map[string]int{"v": 2, "d": 1, "t": 1}},
		{"commit touching only t", func() {
			var tx delta.Tx
			tx.Insert("T", tuple.New(1, 1))
			exec(t, e, &tx)
		}, map[string]int{"v": 2, "d": 1, "t": 2}},
		{"d's backlog grows", func() { stageBacklog(t, e, 3, 4) }, map[string]int{"v": 3, "d": 1, "t": 2}},
		{"policy change", func() {
			if err := e.SetViewPolicy("t", RefreshSpec{Kind: RefreshEvery, Interval: time.Hour}); err != nil {
				t.Fatal(err)
			}
		}, map[string]int{"v": 3, "d": 1, "t": 2}},
		{"refresh", func() {
			if err := e.RefreshView("d"); err != nil {
				t.Fatal(err)
			}
		}, map[string]int{"v": 3, "d": 2, "t": 2}},
		{"MaxStale read", func() {
			stageBacklog(t, e, 5, 6)
			fc.advance(time.Second)
			if _, err := e.ViewFresh("d", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}, map[string]int{"v": 4, "d": 3, "t": 2}},
		{"drop + re-create", func() {
			if err := e.DropView("v"); err != nil {
				t.Fatal(err)
			}
			if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
				t.Fatal(err)
			}
		}, map[string]int{"v": 5, "d": 3, "t": 2}},
	}
	prev := e.CurrentSnapshot()
	total := 0
	for _, st := range steps {
		st.do()
		s := e.CurrentSnapshot()
		checkMemoInvariant(t, st.name, prev, s)
		prev = s
		memoBefore := reads("memo")
		for _, name := range []string{"v", "d", "t"} {
			first := read(name)
			if again := read(name); string(again) != string(first) {
				t.Fatalf("%s: view %s: a second read of one version differs", st.name, name)
			}
		}
		if !maps.Equal(renders, st.want) {
			t.Fatalf("%s: renders = %v, want %v", st.name, renders, st.want)
		}
		total += 6
		if got := reads("memo") + reads("render"); got != int64(total) {
			t.Fatalf("%s: mview_view_reads_total = %d, want %d", st.name, got, total)
		}
		if got := reads("memo") - memoBefore; got < 3 {
			t.Fatalf("%s: second reads served from the memo = %d, want 3", st.name, got)
		}
	}
	var rendered int
	for _, n := range renders {
		rendered += n
	}
	if got := reads("render"); got != int64(rendered) {
		t.Errorf(`mview_view_reads_total{result="render"} = %d, renders %d`, got, rendered)
	}
}

// TestViewVersionRowsSortedAndShared: Rows is the version's contents in
// ascending order, built once and handed to every reader.
func TestViewVersionRowsSortedAndShared(t *testing.T) {
	e, _ := memoEngine(t)
	var tx delta.Tx
	for i := int64(20); i > 0; i-- {
		tx.Insert("R", tuple.New(i%7, i))
	}
	exec(t, e, &tx)
	if err := e.RefreshView("d"); err != nil {
		t.Fatal(err)
	}
	v, err := e.ReadView("d")
	if err != nil {
		t.Fatal(err)
	}
	rows := v.Rows()
	if len(rows) != 20 || v.Len() != 20 {
		t.Fatalf("rows = %d, Len = %d, want 20", len(rows), v.Len())
	}
	if !slices.IsSortedFunc(rows, func(a, b relation.CountedTuple) int { return slices.Compare(a.Tuple, b.Tuple) }) {
		t.Fatalf("rows not sorted: %v", rows)
	}
	w, _ := e.ReadView("d")
	if again := w.Rows(); &again[0] != &rows[0] {
		t.Error("a second reader of the same version re-sorted it")
	}
	if names, err := v.Schema(); err != nil || !slices.Equal(names, []string{"R.A", "R.B"}) {
		t.Errorf("schema = %v, %v", names, err)
	}
}

// TestViewMemoMergeMatchesSort is the oracle for merged read memos.
// Random commits change R — counts rise and fall, a projection folds
// several rows into one, and now and then every row is deleted — and
// a reader reads every k-th version. A version whose predecessor was
// read must link to it and merge; its merged rows and JSON must equal
// a fresh sort and render of the same version. A version whose
// predecessor was never read must not link, and falls back to the sort.
func TestViewMemoMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := New()
	if err := e.CreateRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	views := []expr.View{
		{Name: "proj", Operands: []expr.Operand{{Rel: "R"}}, Project: []schema.Attribute{"A"}},
		{Name: "sel", Operands: []expr.Operand{{Rel: "R"}}, Where: pred.MustParse("B < 6")},
	}
	for _, v := range views {
		if err := e.CreateView(v, ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	render := func(rows []relation.CountedTuple, schema []string) []byte {
		return []byte(fmt.Sprint(rows, schema))
	}
	have := map[[2]int64]bool{}
	prevMemo := map[string]*viewMemo{}
	merges, sorts := 0, 0
	k := 1
	for version := 1; version <= 600; version++ {
		var tx delta.Tx
		if rng.Intn(40) == 0 {
			for ab := range have {
				tx.Delete("R", tuple.New(ab[0], ab[1]))
			}
			clear(have)
		} else {
			for range 1 + rng.Intn(4) {
				ab := [2]int64{rng.Int63n(12), rng.Int63n(8)}
				if have[ab] {
					tx.Delete("R", tuple.New(ab[0], ab[1]))
				} else {
					tx.Insert("R", tuple.New(ab[0], ab[1]))
				}
				have[ab] = !have[ab]
			}
		}
		if _, err := e.Execute(&tx); err != nil {
			t.Fatal(err)
		}
		// Inspect the published snapshot without pinning it.
		s := e.snap.Load()
		read := version%k == 0
		for _, v := range views {
			sv := s.views[v.Name]
			m, old := sv.memo, prevMemo[v.Name]
			prevMemo[v.Name] = m
			if m == old {
				continue // the commit did not change this view
			}
			linked := m.prev != nil
			if want := old != nil && old.built.Load(); linked != want {
				t.Fatalf("version %d, view %s: linked %v, want %v (predecessor built: %v)",
					version, v.Name, linked, want, want)
			}
			if !read {
				continue
			}
			if linked {
				got, ok := mergeRows(m.prev, m.delta.Rows, m.data.Len())
				if !ok || !slices.EqualFunc(got, m.data.Tuples(), equalRows) {
					t.Fatalf("version %d, view %s: merged rows (ok %v) %v, want %v",
						version, v.Name, ok, got, m.data.Tuples())
				}
				merges++
			} else {
				sorts++
			}
		}
		if !read {
			continue
		}
		for _, v := range views {
			vv, err := e.ReadView(v.Name)
			if err != nil {
				t.Fatal(err)
			}
			rows := vv.Rows()
			want := vv.sv.data.Tuples()
			if !slices.EqualFunc(rows, want, equalRows) {
				t.Fatalf("version %d, view %s: rows %v, want %v", version, v.Name, rows, want)
			}
			schema, err := vv.Schema()
			if err != nil {
				t.Fatal(err)
			}
			js, err := vv.JSON(render)
			if err != nil {
				t.Fatal(err)
			}
			if string(js) != string(render(want, schema)) {
				t.Fatalf("version %d, view %s: JSON %s, want %s", version, v.Name, js, render(want, schema))
			}
			if m := vv.sv.memo; m.prev != nil || m.delta != nil {
				t.Fatalf("version %d, view %s: a built memo still links its predecessor", version, v.Name)
			}
		}
		k = 1 + rng.Intn(3)
	}
	t.Logf("read versions: %d merged, %d sorted", merges, sorts)
	if merges == 0 || sorts == 0 {
		t.Fatalf("read versions: %d merged, %d sorted; want both paths exercised", merges, sorts)
	}
}

func equalRows(a, b relation.CountedTuple) bool {
	return a.Count == b.Count && slices.Equal(a.Tuple, b.Tuple)
}
