package db

import (
	"fmt"
	"sync"
	"testing"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// TestSnapshotIsolation: a View/Relation result is one immutable cut;
// commits after the read publish new snapshots and never mutate it.
func TestSnapshotIsolation(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 10))
	exec(t, e, &tx)

	v0, _ := e.View("v")
	r0, _ := e.Relation("R")
	s0 := e.CurrentSnapshot()

	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(3, 2)).Delete("R", tuple.New(1, 2))
	exec(t, e, &tx2)

	if v0.Len() != 1 || !v0.Has(tuple.New(1, 2, 10)) {
		t.Errorf("old View result changed under a commit: %v", v0)
	}
	if r0.Len() != 1 || !r0.Has(tuple.New(1, 2)) {
		t.Errorf("old Relation result changed under a commit: %v", r0)
	}
	v1, _ := e.View("v")
	if v1.Len() != 1 || !v1.Has(tuple.New(3, 2, 10)) {
		t.Errorf("fresh View read missed the commit: %v", v1)
	}
	if s1 := e.CurrentSnapshot(); s1.Seq() <= s0.Seq() {
		t.Errorf("commit did not advance the snapshot: %d -> %d", s0.Seq(), s1.Seq())
	}
}

// TestSnapshotSharing: publishing is copy-on-write — a commit that
// does not touch a view carries that view's snapView (and data)
// into the next snapshot by pointer, and untouched base relations
// stay shared too.
func TestSnapshotSharing(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateRelation("T", "X", "Y"); err != nil {
		t.Fatal(err)
	}
	// vR depends only on R, vT only on T.
	vR := expr.View{Name: "vR", Operands: []expr.Operand{{Rel: "R"}},
		Where: pred.MustParse("A < 100")}
	vT := expr.View{Name: "vT", Operands: []expr.Operand{{Rel: "T"}},
		Where: pred.MustParse("X < 100")}
	if err := e.CreateView(vR, ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(vT, ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 1)).Insert("T", tuple.New(2, 2))
	exec(t, e, &tx)

	before := e.CurrentSnapshot()
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(3, 3))
	exec(t, e, &tx2)
	after := e.CurrentSnapshot()

	if before == after {
		t.Fatal("commit did not publish a new snapshot")
	}
	if before.views["vT"] != after.views["vT"] {
		t.Error("untouched view was rebuilt instead of shared")
	}
	if before.base["T"] != after.base["T"] {
		t.Error("untouched base relation was copied instead of shared")
	}
	if before.base["S"] != after.base["S"] {
		t.Error("untouched base relation S was copied instead of shared")
	}
	if before.views["vR"] == after.views["vR"] {
		t.Error("touched view's snapView must be rebuilt")
	}
	if before.views["vR"].data == after.views["vR"].data {
		t.Error("touched view's data must be a copy-on-write clone")
	}
	if before.base["R"] == after.base["R"] {
		t.Error("touched base relation must be a copy-on-write clone")
	}
}

// TestSnapshotConcurrentReaders hammers every lock-free read path
// while writers commit, refresh, and run DDL. Run under -race this
// proves the copy-on-write discipline: published snapshots are never
// mutated in place.
func TestSnapshotConcurrentReaders(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	def := expr.View{
		Name:     "vdef",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A < 1000"),
		Project:  []schema.Attribute{"A"},
	}
	if err := e.CreateView(def, ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}

	const writers, readers, txPerWriter = 4, 4, 50
	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(id int) {
			defer wgW.Done()
			for i := 0; i < txPerWriter; i++ {
				n := int64(id*txPerWriter + i)
				var tx delta.Tx
				tx.Insert("R", tuple.New(n%500, n%7)).Insert("S", tuple.New(n%7, n))
				if _, err := e.Execute(&tx); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 0 {
					if err := e.RefreshView("vdef"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func(id int) {
			defer wgR.Done()
			q := expr.View{
				Name:     "(q)",
				Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
				Where:    pred.MustParse("R.B = S.B && R.A < 5"),
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v, err := e.View("v")
				if err != nil {
					t.Error(err)
					return
				}
				sum := 0
				v.Each(func(tp tuple.Tuple, n int64) { sum += len(tp) })
				if _, err := e.ViewStats("v"); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Query(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Explain("v"); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Relevant("vdef", "R", tuple.New(int64(i%2000), 0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	// DDL churn alongside: create and drop throwaway views.
	wgW.Add(1)
	go func() {
		defer wgW.Done()
		for i := 0; i < 25; i++ {
			name := fmt.Sprintf("tmp%d", i)
			v := expr.View{Name: name, Operands: []expr.Operand{{Rel: "R"}},
				Where: pred.MustParse("A < 10")}
			if err := e.CreateView(v, ViewConfig{}); err != nil {
				t.Error(err)
				return
			}
			if err := e.DropView(name); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wgW.Wait() // writers and DDL finish on their own
	close(stop)
	wgR.Wait()

	// Final consistency check: a fresh read sees all committed state.
	if err := e.RefreshView("vdef"); err != nil {
		t.Fatal(err)
	}
	r, err := e.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	vd, err := e.View("vdef")
	if err != nil {
		t.Fatal(err)
	}
	if vd.Len() == 0 || r.Len() == 0 {
		t.Errorf("final state empty: |R|=%d |vdef|=%d", r.Len(), vd.Len())
	}
}
