package db

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/obs"
	"mview/internal/tuple"
)

// TestCommitStageSpansAndHistograms commits one transaction touching
// three views with a hierarchical tracer attached and checks the whole
// observability surface at once: the span tree (db.commit root,
// commit.<stage> children, one maint.task grandchild per view in view
// order, all on one trace, run one after another inside the maint
// stage), the mview_commit_stage_seconds histograms (every stage
// observed exactly once, including skipped ones at zero), and the
// engine's cumulative critical-path attribution (every stage summed,
// maint included; slowest_task reported inside maint, not added).
func TestCommitStageSpansAndHistograms(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	tr := &obs.CollectingTracer{}
	e.SetObs(reg, tr)
	views := []string{"V1", "V2", "V3"}
	for _, name := range views {
		if err := e.CreateView(joinViewDef(t, e, name), ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}

	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 5))
	exec(t, e, &tx)

	byName := make(map[string]obs.CollectedSpan)
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	root, ok := byName["db.commit"]
	if !ok || root.Parent != 0 || root.Trace == 0 {
		t.Fatalf("db.commit root missing or malformed: %+v", root)
	}
	for _, stage := range []string{"net", "compose", "maint", "validate", "install", "publish"} {
		s, ok := byName["commit."+stage]
		if !ok {
			t.Fatalf("no commit.%s span (got %v)", stage, names(tr.Spans))
		}
		if s.Trace != root.Trace {
			t.Errorf("commit.%s trace %d != root trace %d", stage, s.Trace, root.Trace)
		}
		if s.Parent != root.Span {
			t.Errorf("commit.%s parent %d != root span %d", stage, s.Parent, root.Span)
		}
	}
	// The solo serial path never fsyncs, so no commit.fsync span — but
	// the stage is still noted at zero (checked below via histograms).
	if _, ok := byName["commit.fsync"]; ok {
		t.Errorf("unexpected commit.fsync span on the unlogged path")
	}
	maint := byName["commit.maint"]
	var taskViews []string
	var taskSum time.Duration
	for _, s := range tr.Spans {
		if s.Name != "maint.task" {
			continue
		}
		if s.Parent != maint.Span || s.Trace != root.Trace {
			t.Errorf("maint.task not parented under commit.maint: %+v", s)
		}
		for _, kv := range s.KVs {
			if kv.K == "view" {
				taskViews = append(taskViews, fmt.Sprint(kv.V))
			}
		}
		taskSum += s.Dur
	}
	if fmt.Sprint(taskViews) != fmt.Sprint(views) {
		t.Errorf("maint.task spans ran for views %v, want one per view in view order %v", taskViews, views)
	}
	// The tasks run one after another inside the stage, so together
	// they fit in its wall time.
	if taskSum > maint.Dur {
		t.Errorf("maint.task spans sum to %v, more than the maint stage's %v: tasks overlapped", taskSum, maint.Dur)
	}

	// Every stage's histogram observed exactly one batch, aligned counts.
	for i := 0; i < numStages; i++ {
		s := series(t, reg, "mview_commit_stage_seconds", map[string]string{"stage": stageNames[i]})
		if s.Count != 1 {
			t.Errorf("stage %s count = %d, want 1", stageNames[i], s.Count)
		}
	}

	cp := e.CriticalPath()
	if cp.Batches != 1 {
		t.Fatalf("CriticalPath batches = %d, want 1", cp.Batches)
	}
	if cp.Seconds <= 0 {
		t.Errorf("CriticalPath seconds = %v, want > 0", cp.Seconds)
	}
	if len(cp.Stages) != numStages {
		t.Errorf("CriticalPath reports %d stages, want all %d", len(cp.Stages), numStages)
	}
	mst, slow := cp.Stages["maint"], cp.Stages["slowest_task"]
	if mst.Seconds <= 0 {
		t.Errorf("maint stage = %+v, want it counted on the critical path", mst)
	}
	if slow.Seconds <= 0 || slow.Seconds > mst.Seconds {
		t.Errorf("slowest_task %v s must be a positive component of maint's %v s", slow.Seconds, mst.Seconds)
	}
	var share, secs float64
	for name, st := range cp.Stages {
		if st.Seconds < 0 || st.Share < 0 || st.Share > 1 {
			t.Errorf("stage %s out of range: %+v", name, st)
		}
		if name != "slowest_task" {
			share += st.Share
			secs += st.Seconds
		}
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("stage shares (slowest_task aside) sum to %v, want 1", share)
	}
	if d := secs - cp.Seconds; d > 1e-9 || d < -1e-9 {
		t.Errorf("CriticalPath seconds = %v, the stages (slowest_task aside) sum to %v", cp.Seconds, secs)
	}
}

func names(spans []obs.CollectedSpan) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestFlightRecorderGroupedCommitStress hammers the group-commit
// scheduler with a flight recorder attached (run under -race): every
// recorded trace must be well-formed — exactly one root, every child
// parented to a span in the same trace, offsets within the root's
// duration — and the ring stays bounded.
func TestFlightRecorderGroupedCommitStress(t *testing.T) {
	e := newEngine(t)
	fr := obs.NewFlightRecorder(32, 0)
	e.SetObs(obs.NewRegistry(), fr)
	if err := e.CreateView(joinViewDef(t, e, "V"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	e.EnableGroupCommit(8, 200*time.Microsecond, nil)

	const workers, perWorker = 8, 24
	var wg sync.WaitGroup
	var traceMu sync.Mutex
	var firstTrace uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var tx delta.Tx
				tx.Insert("R", tuple.New(int64(w*1000+i), int64(i)))
				res, err := e.Execute(&tx)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if res.Trace != 0 {
					traceMu.Lock()
					firstTrace = res.Trace
					traceMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	e.DisableGroupCommit()

	if firstTrace == 0 {
		t.Fatalf("no grouped commit reported a trace id")
	}
	traces := fr.Traces()
	if len(traces) == 0 || len(traces) > 32 {
		t.Fatalf("recorder holds %d traces, want 1..32", len(traces))
	}
	// The ring mixes the groups' own db.commit_group traces with the
	// per-member db.commit traces that link to them; both must be
	// well-formed, and at least one group trace must survive.
	groups := 0
	for _, tr := range traces {
		switch tr.Name {
		case "db.commit_group":
			groups++
		case "db.commit":
		default:
			t.Errorf("trace %d root = %q, want db.commit or db.commit_group", tr.ID, tr.Name)
		}
		ids := map[uint64]bool{}
		roots := 0
		for _, s := range tr.Spans {
			ids[s.ID] = true
			if s.Parent == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Errorf("trace %d has %d roots, want 1", tr.ID, roots)
		}
		for _, s := range tr.Spans {
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("trace %d: span %d orphaned (parent %d absent)", tr.ID, s.ID, s.Parent)
			}
			if s.Offset < 0 || s.Offset > tr.Seconds+1e-9 {
				t.Errorf("trace %d: span %d offset %v outside root duration %v",
					tr.ID, s.ID, s.Offset, tr.Seconds)
			}
		}
		if len(tr.Critical) == 0 {
			t.Errorf("trace %d has no critical path", tr.ID)
		}
	}
	if groups == 0 {
		t.Errorf("no db.commit_group trace survived in the ring")
	}
}

// TestRefreshTriggersTraceOnce drives every refresh trigger through the
// one refresh path — RefreshView, RefreshAll, an interval refresh, a
// MaxStale read, a SetViewPolicy drain and an autopolicy flip. Each
// must yield exactly one well-formed trace rooted at db.refresh
// (db.refresh_all) with the refresh stage spans and the maint.task
// fan-out, and ExplainAnalyze must name that trace. Refresh time stays
// out of CriticalPath.
func TestRefreshTriggersTraceOnce(t *testing.T) {
	ondemand := RefreshSpec{Kind: RefreshOnDemand}
	triggers := []struct {
		name, root string
		when       RefreshSpec
		fire       func(t *testing.T, e *Engine, fc *fakeClock)
	}{
		{"RefreshView", "db.refresh", ondemand, func(t *testing.T, e *Engine, _ *fakeClock) {
			if err := e.RefreshView("v"); err != nil {
				t.Fatal(err)
			}
		}},
		{"RefreshAll", "db.refresh_all", ondemand, func(t *testing.T, e *Engine, _ *fakeClock) {
			if err := e.RefreshAll(); err != nil {
				t.Fatal(err)
			}
		}},
		{"interval", "db.refresh", RefreshSpec{Kind: RefreshEvery, Interval: time.Second}, func(t *testing.T, e *Engine, fc *fakeClock) {
			// Later intervals find no backlog, which is no refresh at all.
			schedWait(t, "interval refresh", func() bool {
				fc.advance(time.Second)
				st, _ := e.ViewStats("v")
				return st.PendingTx == 0
			})
		}},
		{"MaxStale read", "db.refresh", ondemand, func(t *testing.T, e *Engine, fc *fakeClock) {
			fc.advance(time.Second)
			if _, err := e.ViewFresh("v", time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}},
		{"SetViewPolicy drain", "db.refresh", ondemand, func(t *testing.T, e *Engine, _ *fakeClock) {
			if err := e.SetViewPolicy("v", RefreshSpec{Kind: RefreshOnCommit}); err != nil {
				t.Fatal(err)
			}
		}},
		{"autopolicy flip", "db.refresh", RefreshSpec{Kind: RefreshAdaptive}, func(t *testing.T, e *Engine, _ *fakeClock) {
			// A read-heavy window after a primed one flips the view back
			// to on-commit, draining its backlog.
			e.mu.RLock()
			w := int64(e.views["v"].stats.Transactions)
			e.mu.RUnlock()
			if _, err := e.View("v"); err != nil {
				t.Fatal(err)
			}
			e.sched.evalAdaptive("v", &adaptState{primed: true, lastWrites: w})
		}},
	}
	for _, tc := range triggers {
		t.Run(tc.name, func(t *testing.T) {
			e, fc := newFakeClockEngine(t)
			defer e.StopScheduler()
			fr := obs.NewFlightRecorder(64, 0)
			e.SetObs(obs.NewRegistry(), fr)
			if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{When: tc.when}); err != nil {
				t.Fatal(err)
			}
			if tc.when.Kind == RefreshAdaptive {
				e.mu.Lock()
				e.views["v"].deferred = true // as a write-heavy window would have left it
				e.mu.Unlock()
			}
			stageBacklog(t, e, 1, 2)
			seen := map[uint64]bool{}
			for _, tr := range fr.Traces() {
				seen[tr.ID] = true
			}
			batches := e.CriticalPath().Batches

			tc.fire(t, e, fc)
			var fresh []*obs.Trace
			schedWait(t, "the refresh trace", func() bool {
				fresh = fresh[:0]
				for _, tr := range fr.Traces() {
					if !seen[tr.ID] {
						fresh = append(fresh, tr)
					}
				}
				return len(fresh) > 0
			})
			if len(fresh) != 1 || fresh[0].Name != tc.root {
				for _, tr := range fresh {
					t.Logf("trace %d: %s", tr.ID, tr.Name)
				}
				t.Fatalf("%d new traces, want exactly one rooted at %s", len(fresh), tc.root)
			}
			tr := fresh[0]
			ids, roots, got := map[uint64]bool{}, 0, map[string]bool{}
			for _, s := range tr.Spans {
				ids[s.ID] = true
				got[s.Name] = true
				if s.Parent == 0 {
					roots++
				}
			}
			if roots != 1 {
				t.Errorf("trace has %d roots, want 1", roots)
			}
			for _, s := range tr.Spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %s orphaned (parent %d absent)", s.Name, s.Parent)
				}
			}
			for _, name := range []string{"refresh.maint", "maint.task", "refresh.validate", "refresh.install", "refresh.publish"} {
				if !got[name] {
					t.Errorf("trace lacks a %s span (spans %v)", name, got)
				}
			}
			out, err := e.ExplainAnalyze("v")
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, fmt.Sprintf("trace=%d", tr.ID)) {
				t.Errorf("ExplainAnalyze does not name trace %d:\n%s", tr.ID, out)
			}
			if st, _ := e.ViewStats("v"); st.PendingTx != 0 || st.Refreshes != 1 {
				t.Errorf("after the refresh: %+v, want no backlog and one refresh", st)
			}
			if b := e.CriticalPath().Batches; b != batches {
				t.Errorf("the refresh counted as %d commit batches", b-batches)
			}
		})
	}
}

// TestStalenessTracksDeferredBacklog checks the per-view staleness
// clock: fresh at creation, ticking once a commit stages backlog,
// fresh again after refresh — with the gauge mirroring each reading.
func TestStalenessTracksDeferredBacklog(t *testing.T) {
	e := newEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	if err := e.CreateView(joinViewDef(t, e, "imm"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "def"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}

	if st := e.Staleness(); st["imm"] != 0 || st["def"] != 0 {
		t.Fatalf("fresh views report staleness %v", st)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 5))
	exec(t, e, &tx)
	time.Sleep(2 * time.Millisecond)

	st := e.Staleness()
	if st["imm"] != 0 {
		t.Errorf("immediate view went stale: %v", st["imm"])
	}
	if st["def"] <= 0 {
		t.Errorf("deferred view staleness = %v, want > 0", st["def"])
	}
	g := series(t, reg, "mview_view_staleness_seconds", map[string]string{"view": "def"})
	if g.Value <= 0 {
		t.Errorf("staleness gauge = %v, want > 0", g.Value)
	}

	// A second commit must not reset the clock: staleness is the age of
	// the OLDEST unapplied change.
	before := st["def"]
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(3, 4))
	exec(t, e, &tx2)
	if st := e.Staleness(); st["def"] < before {
		t.Errorf("staleness went backwards after second commit: %v -> %v", before, st["def"])
	}

	if err := e.RefreshView("def"); err != nil {
		t.Fatal(err)
	}
	if st := e.Staleness(); st["def"] != 0 {
		t.Errorf("staleness after refresh = %v, want 0", st["def"])
	}
	g = series(t, reg, "mview_view_staleness_seconds", map[string]string{"view": "def"})
	if g.Value != 0 {
		t.Errorf("staleness gauge after refresh = %v, want 0", g.Value)
	}
}

// TestExplainAnalyze drives one immediate and one deferred view and
// checks the analyze section: counters, staleness wording, and the
// actual stage timings of the last maintenance with its trace id.
func TestExplainAnalyze(t *testing.T) {
	e := newEngine(t)
	e.SetObs(obs.NewRegistry(), obs.NewFlightRecorder(4, 0))
	if err := e.CreateView(joinViewDef(t, e, "imm"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "def"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}

	// Before any commit: no maintenance recorded yet.
	out, err := e.ExplainAnalyze("imm")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "last maintenance: none recorded") {
		t.Errorf("pre-commit analyze missing 'none recorded':\n%s", out)
	}

	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 5))
	res := exec(t, e, &tx)

	out, err = e.ExplainAnalyze("imm")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"analyze:", "counters: transactions=1", "staleness: fresh",
		"decision=differential", "compute=", "install=", "delta: +1/-0",
		fmt.Sprintf("trace=%d", res.Trace),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	// The trace id in the plan resolves in the flight recorder... once
	// tracing is hierarchical. The solo path's root is db.commit.
	if res.Trace == 0 {
		t.Errorf("TxResult.Trace = 0 with tracer attached")
	}

	out, err = e.ExplainAnalyze("def")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "behind (oldest unapplied change)") {
		t.Errorf("deferred analyze missing staleness line:\n%s", out)
	}
	if err := e.RefreshView("def"); err != nil {
		t.Fatal(err)
	}
	out, err = e.ExplainAnalyze("def")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "decision=") {
		t.Errorf("refreshed deferred analyze missing decision:\n%s", out)
	}
	if !strings.Contains(out, "staleness: fresh") {
		t.Errorf("refreshed deferred view not fresh:\n%s", out)
	}

	if _, err := e.ExplainAnalyze("nope"); err == nil {
		t.Errorf("ExplainAnalyze of unknown view must fail")
	}
}
