package db

import (
	"strings"
	"testing"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/tuple"
)

// TestCommitAtomicOnInjectedFailure proves the all-or-nothing commit:
// when one view's staged delta fails validation, the bases, the
// indexes, every other view, and every deferred backlog are exactly as
// they were before Execute.
func TestCommitAtomicOnInjectedFailure(t *testing.T) {
	e := newEngine(t)
	for _, name := range []string{"v", "bad"} {
		if err := e.CreateView(joinViewDef(t, e, name), ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateView(joinViewDef(t, e, "dfr"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	var seed delta.Tx
	seed.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 10)).
		Insert("R", tuple.New(3, 4)).Insert("S", tuple.New(4, 20))
	exec(t, e, &seed)
	if err := e.RefreshView("dfr"); err != nil {
		t.Fatal(err)
	}

	// Corrupt "bad" so the delta of a delete tx cannot fold: the view
	// no longer holds the derivation (1,2,10) the delta will remove.
	if err := e.views["bad"].data.Add(tuple.New(1, 2, 10), -1); err != nil {
		t.Fatal(err)
	}

	rBefore, _ := e.Relation("R")
	vBefore, _ := e.View("v")
	vStats, _ := e.ViewStats("v")

	var del delta.Tx
	del.Delete("R", tuple.New(1, 2))
	if _, err := e.Execute(&del); err == nil {
		t.Fatal("Execute with corrupted view succeeded, want validation error")
	} else if !strings.Contains(err.Error(), "derivations") {
		t.Errorf("Execute error = %v, want delta validation failure", err)
	}

	// Base relations rolled back.
	rAfter, _ := e.Relation("R")
	if !rAfter.Equal(rBefore) {
		t.Errorf("base R changed by failed commit: %v vs %v", rAfter, rBefore)
	}
	// The healthy immediate view is untouched, including its counters.
	vAfter, _ := e.View("v")
	if !vAfter.Equal(vBefore) {
		t.Errorf("view v changed by failed commit: %v vs %v", vAfter, vBefore)
	}
	if st, _ := e.ViewStats("v"); st != vStats {
		t.Errorf("view v stats changed by failed commit: %+v vs %+v", st, vStats)
	}
	// The deferred view queued nothing.
	if st, _ := e.ViewStats("dfr"); st.PendingTx != 0 {
		t.Errorf("deferred view queued %d pending tx during failed commit", st.PendingTx)
	}
	if n := len(e.views["dfr"].pending); n != 0 {
		t.Errorf("deferred backlog has %d staged relations after failed commit", n)
	}

	// Repairing the corruption makes the same transaction commit, and
	// the engine was left consistent enough for it to succeed cleanly.
	if err := e.views["bad"].data.Add(tuple.New(1, 2, 10), 1); err != nil {
		t.Fatal(err)
	}
	var retry delta.Tx
	retry.Delete("R", tuple.New(1, 2))
	exec(t, e, &retry)
	v, _ := e.View("v")
	if v.Has(tuple.New(1, 2, 10)) {
		t.Errorf("view v still holds deleted derivation: %v", v)
	}
	if st, _ := e.ViewStats("dfr"); st.PendingTx != 1 {
		t.Errorf("deferred view PendingTx = %d after successful commit, want 1", st.PendingTx)
	}
}

// TestChooseAdaptiveCountsSelfJoinOnce pins the adaptive cost model on
// a self-join at a threshold boundary: R appears twice in the view, so
// double-counting its delta AND its base size would turn an 8/40 = 0.2
// ratio into 16/60 ≈ 0.267 and wrongly flip a sub-threshold update to
// recompute.
func TestChooseAdaptiveCountsSelfJoinOnce(t *testing.T) {
	e := newEngine(t)
	var seed delta.Tx
	for i := 0; i < 20; i++ {
		seed.Insert("R", tuple.New(int64(i), int64(i)))
		seed.Insert("S", tuple.New(int64(i), int64(100+i)))
	}
	exec(t, e, &seed)
	sj, err := expr.NaturalJoin("sj", e.Scheme(), "R", "R", "S")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(sj, ViewConfig{Policy: PolicyAdaptive}); err != nil {
		t.Fatal(err)
	}

	// 8 inserts, |R| = |S| = 20: ratio 8/(20+20) = 0.2 < 0.25.
	var tx delta.Tx
	for i := 0; i < 8; i++ {
		tx.Insert("R", tuple.New(int64(1000+i), int64(1000+i)))
	}
	exec(t, e, &tx)
	st, _ := e.ViewStats("sj")
	if st.Refreshes != 1 || st.Recomputes != 0 {
		t.Errorf("sub-threshold self-join update: refreshes=%d recomputes=%d, want differential",
			st.Refreshes, st.Recomputes)
	}

	// 15 inserts, |R| = 28, |S| = 20: ratio 15/48 ≈ 0.31 > 0.25 — the
	// dedup must not stop the threshold from flipping when warranted.
	var tx2 delta.Tx
	for i := 0; i < 15; i++ {
		tx2.Insert("R", tuple.New(int64(2000+i), int64(2000+i)))
	}
	exec(t, e, &tx2)
	st, _ = e.ViewStats("sj")
	if st.Refreshes != 1 || st.Recomputes != 1 {
		t.Errorf("super-threshold self-join update: refreshes=%d recomputes=%d, want recompute",
			st.Refreshes, st.Recomputes)
	}
}

// TestRefreshAllErrorKeepsBacklog checks RefreshAll's error contract:
// the views refresh one after another, healthy views install, the
// failing view keeps its backlog, and the first error is returned —
// then a repaired view refreshes on retry.
func TestRefreshAllErrorKeepsBacklog(t *testing.T) {
	e := New()
	if err := e.CreateRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "B", "C"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d2", "d3"} {
		if err := e.CreateView(joinViewDef(t, e, name), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
			t.Fatal(err)
		}
	}
	var seed delta.Tx
	seed.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 10))
	exec(t, e, &seed)
	if err := e.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d1", "d2", "d3"} {
		v, _ := e.View(name)
		if !v.Has(tuple.New(1, 2, 10)) {
			t.Fatalf("%s not refreshed by RefreshAll: %v", name, v)
		}
	}

	var del delta.Tx
	del.Delete("R", tuple.New(1, 2))
	exec(t, e, &del)
	// Corrupt d2 so its pending delete cannot fold.
	if err := e.views["d2"].data.Add(tuple.New(1, 2, 10), -1); err != nil {
		t.Fatal(err)
	}
	if err := e.RefreshAll(); err == nil {
		t.Fatal("RefreshAll with corrupted d2 succeeded, want error")
	} else if !strings.Contains(err.Error(), "derivations") {
		t.Errorf("RefreshAll error = %v", err)
	}
	for _, name := range []string{"d1", "d3"} {
		v, _ := e.View(name)
		if v.Has(tuple.New(1, 2, 10)) {
			t.Errorf("%s kept deleted derivation after RefreshAll: %v", name, v)
		}
		if st, _ := e.ViewStats(name); st.PendingTx != 0 {
			t.Errorf("%s PendingTx = %d after successful refresh, want 0", name, st.PendingTx)
		}
	}
	if st, _ := e.ViewStats("d2"); st.PendingTx != 1 {
		t.Errorf("d2 PendingTx = %d after failed refresh, want backlog kept", st.PendingTx)
	}

	// Repair and retry: the kept backlog folds cleanly.
	if err := e.views["d2"].data.Add(tuple.New(1, 2, 10), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.RefreshAll(); err != nil {
		t.Fatalf("RefreshAll after repair: %v", err)
	}
	v, _ := e.View("d2")
	if v.Has(tuple.New(1, 2, 10)) {
		t.Errorf("d2 still holds deleted derivation after retry: %v", v)
	}
}
