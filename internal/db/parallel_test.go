package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mview/internal/delta"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/obs"
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

// TestParallelCommitMatchesSerialAcrossWorkers drives identical random
// transaction streams through a serial engine (1 worker) and a
// parallel one (4 workers) over 8 views with mixed modes and policies,
// then checks every view against the other engine AND against a full
// recompute oracle. Run with -race to exercise the phase-1/phase-3a
// fan-out.
func TestParallelCommitMatchesSerialAcrossWorkers(t *testing.T) {
	const nviews = 8
	defs := make([]expr.View, nviews)
	build := func(workers int) *Engine {
		e := New(WithMaintWorkers(workers))
		for i := 0; i < nviews; i++ {
			if err := e.CreateRelation(fmt.Sprintf("R%d", i), "A", "B"); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.CreateRelation("S", "B", "C"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nviews; i++ {
			v, err := expr.NaturalJoin(fmt.Sprintf("v%d", i), e.Scheme(), fmt.Sprintf("R%d", i), "S")
			if err != nil {
				t.Fatal(err)
			}
			defs[i] = v
			cfg := ViewConfig{}
			switch i % 3 {
			case 1:
				cfg.When.Kind = RefreshOnDemand
			case 2:
				cfg.Policy = PolicyAdaptive
			}
			if err := e.CreateView(v, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	serial, par := build(1), build(4)

	rels := make([]string, 0, nviews+1)
	for i := 0; i < nviews; i++ {
		rels = append(rels, fmt.Sprintf("R%d", i))
	}
	rels = append(rels, "S")
	live := make(map[string][]tuple.Tuple) // mirror of base contents
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 60; round++ {
		var tx delta.Tx
		seen := make(map[string]bool)
		for n := 1 + rng.Intn(4); n > 0; n-- {
			rel := rels[rng.Intn(len(rels))]
			if len(live[rel]) > 0 && rng.Intn(10) < 3 {
				i := rng.Intn(len(live[rel]))
				tu := live[rel][i]
				if seen[rel+tu.Key()] {
					continue
				}
				seen[rel+tu.Key()] = true
				tx.Delete(rel, tu)
				live[rel] = append(live[rel][:i], live[rel][i+1:]...)
				continue
			}
			tu := tuple.New(int64(rng.Intn(12)), int64(rng.Intn(6)))
			if seen[rel+tu.Key()] {
				continue
			}
			dup := false
			for _, x := range live[rel] {
				if x.Key() == tu.Key() {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[rel+tu.Key()] = true
			tx.Insert(rel, tu)
			live[rel] = append(live[rel], tu)
		}
		if tx.Len() == 0 {
			continue
		}
		if _, err := serial.Execute(&tx); err != nil {
			t.Fatalf("round %d: serial: %v", round, err)
		}
		if _, err := par.Execute(&tx); err != nil {
			t.Fatalf("round %d: parallel: %v", round, err)
		}
	}
	if err := serial.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := par.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nviews; i++ {
		name := fmt.Sprintf("v%d", i)
		vs, _ := serial.View(name)
		vp, _ := par.View(name)
		if !vs.Equal(vp) {
			t.Errorf("%s diverged between 1 and 4 workers:\n serial: %v\n parallel: %v", name, vs, vp)
		}
		oracle, err := par.Query(defs[i], eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !vp.Equal(oracle) {
			t.Errorf("%s diverged from recompute oracle:\n view: %v\n oracle: %v", name, vp, oracle)
		}
	}
}

// TestRefreshAllParallelAndErrorKeepsBacklog checks RefreshAll's error
// contract under the parallel pool: healthy views install, the failing
// view keeps its backlog, and the first error is returned — then a
// repaired view refreshes on retry.
func TestRefreshAllParallelAndErrorKeepsBacklog(t *testing.T) {
	e := New(WithMaintWorkers(4))
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

// TestMaintWorkersKnob covers the pool-size configuration surface: the
// GOMAXPROCS default, the option (n <= 0 keeps the default), and the
// mview_maint_workers gauge.
func TestMaintWorkersKnob(t *testing.T) {
	def := runtime.GOMAXPROCS(0)
	if got := New().MaintWorkers(); got != def {
		t.Errorf("default MaintWorkers() = %d, want GOMAXPROCS %d", got, def)
	}
	e := New(WithMaintWorkers(3))
	if got := e.MaintWorkers(); got != 3 {
		t.Errorf("WithMaintWorkers(3): MaintWorkers() = %d", got)
	}
	for _, n := range []int{0, -7} {
		if got := New(WithMaintWorkers(n)).MaintWorkers(); got != def {
			t.Errorf("WithMaintWorkers(%d): MaintWorkers() = %d, want default %d", n, got, def)
		}
	}

	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	gauge := func() float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == "mview_maint_workers" {
				return s.Value
			}
		}
		t.Fatal("mview_maint_workers not in registry snapshot")
		return 0
	}
	if got := gauge(); got != 3 {
		t.Errorf("gauge after SetObs = %v, want 3", got)
	}
}
