package db

import (
	"testing"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// series finds one snapshot entry by name and labels (nil matches the
// unlabeled series).
func series(t *testing.T, reg *obs.Registry, name string, labels map[string]string) obs.SeriesSnapshot {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
			}
		}
		if match {
			return s
		}
	}
	t.Fatalf("no series %s%v in snapshot", name, labels)
	return obs.SeriesSnapshot{}
}

func refreshCount(t *testing.T, reg *obs.Registry, view, decision string) int64 {
	t.Helper()
	return series(t, reg, "mview_view_refresh_seconds",
		map[string]string{"view": view, "decision": decision}).Count
}

// TestMetricsAdvanceAcrossPolicies drives one engine with an
// immediate filtered view, a deferred view, and an adaptive view, and
// checks that commit, refresh-latency, filter, and pending-backlog
// metrics all advance with the right labels.
func TestMetricsAdvanceAcrossPolicies(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)

	sel := expr.View{
		Name:     "imm",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.Or(pred.And(pred.VarConst("R.A", pred.OpLT, 10))),
		Project:  []schema.Attribute{"R.A", "R.B"},
	}
	if err := e.CreateView(sel, ViewConfig{Maint: diffeval.Options{Filter: true}}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "def"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "adap"),
		ViewConfig{Policy: PolicyAdaptive}); err != nil {
		t.Fatal(err)
	}

	// Tx 1: both base relations empty, so the adaptive view must pick
	// full recomputation; R.A=1 passes the imm filter.
	var tx1 delta.Tx
	tx1.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 5)).
		Insert("S", tuple.New(3, 6)).Insert("S", tuple.New(4, 7))
	exec(t, e, &tx1)
	// Tx 2: provably irrelevant to imm (A=50 ≥ 10); small against a
	// non-empty base, so the adaptive view now goes differential.
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(50, 7))
	exec(t, e, &tx2)

	if got := series(t, reg, "mview_commits_total", nil).Value; got != 2 {
		t.Errorf("mview_commits_total = %v, want 2", got)
	}
	if got := series(t, reg, "mview_commit_seconds", nil).Count; got != 2 {
		t.Errorf("mview_commit_seconds count = %v, want 2", got)
	}
	if got := refreshCount(t, reg, "imm", "differential"); got != 2 {
		t.Errorf("imm differential refreshes = %d, want 2", got)
	}
	if got := refreshCount(t, reg, "adap", "adaptive_recompute"); got != 1 {
		t.Errorf("adap recompute refreshes = %d, want 1", got)
	}
	if got := refreshCount(t, reg, "adap", "adaptive_differential"); got != 1 {
		t.Errorf("adap differential refreshes = %d, want 1", got)
	}
	immLabels := map[string]string{"view": "imm"}
	if got := series(t, reg, "mview_filter_discarded_total", immLabels).Value; got != 1 {
		t.Errorf("filter discarded = %v, want 1 (the A=50 insert)", got)
	}
	if got := series(t, reg, "mview_filter_passed_total", immLabels).Value; got != 1 {
		t.Errorf("filter passed = %v, want 1 (the A=1 insert)", got)
	}
	// The §4 counter agrees with the per-view stats surface.
	st, err := e.ViewStats("imm")
	if err != nil {
		t.Fatal(err)
	}
	if st.FilteredOut != 1 {
		t.Errorf("ViewStats.FilteredOut = %d, want 1", st.FilteredOut)
	}

	// The deferred view queued both transactions without refreshing;
	// RefreshView drains the backlog and records one differential
	// refresh.
	defLabels := map[string]string{"view": "def"}
	if got := series(t, reg, "mview_view_pending_tx", defLabels).Value; got != 2 {
		t.Errorf("pending gauge = %v, want 2", got)
	}
	if err := e.RefreshView("def"); err != nil {
		t.Fatal(err)
	}
	if got := series(t, reg, "mview_view_pending_tx", defLabels).Value; got != 0 {
		t.Errorf("pending gauge after refresh = %v, want 0", got)
	}
	if got := refreshCount(t, reg, "def", "differential"); got != 1 {
		t.Errorf("def differential refreshes = %d, want 1", got)
	}
}

// TestSetObsWiresExistingAndNewViews attaches the registry after one
// view exists and before another is created; both must report.
func TestSetObsWiresExistingAndNewViews(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "before"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := &obs.CollectingTracer{}
	e.SetObs(reg, tr)
	if err := e.CreateView(joinViewDef(t, e, "after"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 5))
	exec(t, e, &tx)
	for _, view := range []string{"before", "after"} {
		if got := refreshCount(t, reg, view, "differential"); got != 1 {
			t.Errorf("view %s refreshes = %d, want 1", view, got)
		}
	}
	// The maintenance tracer fired for both views' delta computations.
	var computes int
	for _, s := range tr.Spans {
		if s.Name == "diffeval.compute" {
			computes++
		}
	}
	if computes != 2 {
		t.Errorf("diffeval.compute spans = %d, want 2", computes)
	}

	// Detaching stops the counters without disturbing maintenance.
	e.SetObs(nil, nil)
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(3, 2))
	exec(t, e, &tx2)
	if got := series(t, reg, "mview_commits_total", nil).Value; got != 1 {
		t.Errorf("commits after detach = %v, want 1", got)
	}
	v, err := e.View("before")
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("view rows after detach = %d, want 2", v.Len())
	}
}
