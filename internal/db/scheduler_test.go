package db

// Deterministic tests of the refresh scheduler: a fake clock stands in
// for schedClock (and Engine.now), so interval firing, SLO deadlines,
// and adaptive evaluation windows advance only when the test says so.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/obs"
	"mview/internal/tuple"
)

// fakeClock is a manually-advanced schedClock. After registers a
// one-shot timer; advance moves the clock and fires every timer whose
// deadline passed. All methods are safe for concurrent use — the wheel
// goroutine reads the clock while the test advances it.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		t.ch <- c.now
		return t.ch
	}
	c.timers = append(c.timers, t)
	return t.ch
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	keep := c.timers[:0]
	for _, t := range c.timers {
		if !t.at.After(c.now) {
			t.ch <- c.now
		} else {
			keep = append(keep, t)
		}
	}
	c.timers = keep
}

// newFakeClockEngine wires a fake clock into a fresh engine BEFORE any
// view exists, so the wheel goroutine (which starts lazily with the
// first scheduled view) only ever sees the fake.
func newFakeClockEngine(t *testing.T) (*Engine, *fakeClock) {
	t.Helper()
	e := newEngine(t)
	fc := newFakeClock()
	e.now = fc.Now
	e.sched.clock = fc
	return e, fc
}

// waitFor polls cond in real time (the fake clock stays put) until it
// holds or the deadline lapses — the bridge between deterministic fake
// time and the wheel goroutine's asynchronous execution.
func schedWait(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func stageBacklog(t *testing.T, e *Engine, a, b int64) {
	t.Helper()
	var tx delta.Tx
	tx.Insert("R", tuple.New(a, b)).Insert("S", tuple.New(b, a*10))
	exec(t, e, &tx)
}

func TestSchedulerEveryFires(t *testing.T) {
	e, fc := newFakeClockEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	const interval = 50 * time.Millisecond
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshEvery, Interval: interval}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	stageBacklog(t, e, 1, 2)

	// Fake time has not moved: the interval cannot have elapsed, so the
	// backlog must still be staged no matter how much real time passes.
	time.Sleep(20 * time.Millisecond)
	if v, _ := e.View("v"); v.Len() != 0 {
		t.Fatalf("view refreshed before its interval elapsed: %v", v)
	}
	if st, _ := e.ViewStats("v"); st.PendingTx != 1 {
		t.Fatalf("PendingTx = %d, want 1", st.PendingTx)
	}

	fc.advance(interval)
	schedWait(t, "interval refresh", func() bool {
		v, err := e.View("v")
		return err == nil && v.Len() == 1
	})
	if st := e.Staleness(); st["v"] != 0 {
		t.Errorf("staleness after interval refresh = %v, want 0", st["v"])
	}
	c := series(t, reg, "mview_policy_refreshes_total", map[string]string{"reason": "interval"})
	if c.Value < 1 {
		t.Errorf("interval refresh counter = %v, want >= 1", c.Value)
	}
}

// TestSchedulerSLOBound is the acceptance test for the MaxStaleness
// SLO: with the scheduler firing at 80% of the bound, the observed
// staleness (and the mview_view_staleness_seconds gauge) must never
// exceed the configured bound.
func TestSchedulerSLOBound(t *testing.T) {
	e, fc := newFakeClockEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	const bound = 100 * time.Millisecond
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshMaxStaleness, Bound: bound}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	if g := series(t, reg, "mview_view_staleness_slo_seconds", map[string]string{"view": "v"}); g.Value != bound.Seconds() {
		t.Fatalf("SLO bound gauge = %v, want %v", g.Value, bound.Seconds())
	}

	checkSLO := func() float64 {
		t.Helper()
		st := e.Staleness()["v"] // refreshes the gauge as a side effect
		if st > bound.Seconds() {
			t.Fatalf("staleness %vs exceeded the SLO bound %v", st, bound)
		}
		g := series(t, reg, "mview_view_staleness_seconds", map[string]string{"view": "v"})
		if g.Value > bound.Seconds() {
			t.Fatalf("staleness gauge %vs exceeded the SLO bound %v", g.Value, bound)
		}
		return st
	}

	// Three backlog→proactive-refresh cycles, stepping fake time in
	// 10ms increments and checking the SLO at every step. The deadline
	// fires at 80ms (80% of the bound); the test then waits for the
	// refresh to land before moving time again, exactly the headroom
	// the scheduler reserves for the refresh itself.
	for cycle := int64(0); cycle < 3; cycle++ {
		stageBacklog(t, e, 10+cycle, 20+cycle)
		for step := 0; step < 8; step++ {
			fc.advance(bound / 10)
			checkSLO()
		}
		// 80% of the bound reached: the proactive refresh must bring the
		// view fresh while real time (but not fake time) passes.
		schedWait(t, fmt.Sprintf("SLO refresh in cycle %d", cycle), func() bool {
			return checkSLO() == 0
		})
		// Well past the original deadline, the view stays within bound
		// because the backlog was already cleared.
		fc.advance(bound)
		checkSLO()
	}
	c := series(t, reg, "mview_policy_refreshes_total", map[string]string{"reason": "slo"})
	if c.Value < 3 {
		t.Errorf("slo refresh counter = %v, want >= 3", c.Value)
	}
}

func TestSchedulerAdaptiveFlips(t *testing.T) {
	e, fc := newFakeClockEngine(t)
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshAdaptive}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	deferred := func() bool {
		v, err := e.ReadView("v")
		if err != nil {
			t.Fatal(err)
		}
		_, d := v.Policy()
		return d
	}
	if deferred() {
		t.Fatal("adaptive views must start on-commit")
	}

	// Write-heavy windows with zero reads: the first evaluation primes
	// the counters, a later one sees dw > 2*dr and sheds maintenance
	// off the commit path.
	next := int64(0)
	schedWait(t, "flip to deferred under writes", func() bool {
		if deferred() {
			return true
		}
		stageBacklog(t, e, 100+next, 200+next)
		next++
		fc.advance(adaptiveEvalEvery)
		time.Sleep(time.Millisecond)
		return deferred()
	})

	// Deferred now: a commit stages backlog instead of refreshing.
	stageBacklog(t, e, 100+next, 200+next)
	next++
	if st, _ := e.ViewStats("v"); st.PendingTx == 0 {
		t.Fatal("deferred adaptive view staged no backlog")
	}

	// Read-heavy windows: dr >= dw flips the view back to on-commit,
	// draining the accumulated backlog under the same lock hold.
	schedWait(t, "flip back to immediate under reads", func() bool {
		if !deferred() {
			return true
		}
		for i := 0; i < 3; i++ {
			if _, err := e.View("v"); err != nil {
				t.Fatal(err)
			}
		}
		fc.advance(adaptiveEvalEvery)
		time.Sleep(time.Millisecond)
		return !deferred()
	})
	st, _ := e.ViewStats("v")
	if st.PendingTx != 0 {
		t.Errorf("backlog survived the flip to immediate: PendingTx = %d", st.PendingTx)
	}
	v, _ := e.View("v")
	if int64(v.Len()) != next {
		t.Errorf("view has %d rows after drain, want %d", v.Len(), next)
	}
	if c := series(t, reg, "mview_policy_adaptive_flips_total", map[string]string{"view": "v", "to": "deferred"}); c.Value < 1 {
		t.Errorf("flip-to-deferred counter = %v, want >= 1", c.Value)
	}
	if c := series(t, reg, "mview_policy_adaptive_flips_total", map[string]string{"view": "v", "to": "immediate"}); c.Value < 1 {
		t.Errorf("flip-to-immediate counter = %v, want >= 1", c.Value)
	}
}

// TestViewFreshBounds pins the boundary semantics of the query-side
// staleness bound: a view exactly as old as the bound is within
// contract and served as is; one instant older is refreshed first.
func TestViewFreshBounds(t *testing.T) {
	e, fc := newFakeClockEngine(t) // no scheduled views: the wheel never starts
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	stageBacklog(t, e, 1, 2)
	fc.advance(50 * time.Millisecond)

	// age == bound: served stale, no refresh.
	v, err := e.ViewFresh("v", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 {
		t.Fatalf("exact-age read refreshed the view: %v", v.Rows())
	}
	if st, _ := e.ViewStats("v"); st.Refreshes != 0 {
		t.Fatalf("exact-age read triggered a refresh: %+v", st)
	}

	// age > bound: refreshed before serving.
	v, err = e.ViewFresh("v", 49*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 {
		t.Fatalf("beyond-bound read served stale contents: %v", v.Rows())
	}
	if st := e.Staleness(); st["v"] != 0 {
		t.Errorf("staleness after bounded read = %v, want 0", st["v"])
	}

	// bound 0 with any nonzero age: always fresh.
	stageBacklog(t, e, 3, 4)
	fc.advance(time.Nanosecond)
	v, err = e.ViewFresh("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("bound-0 read served stale contents: %v", v.Rows())
	}

	if _, err := e.ViewFresh("zzz", 0); err == nil {
		t.Error("unknown view must fail")
	}
}

// TestSchedulerCountsFailedRefreshes breaks a view the way
// TestRefreshAllParallelAndErrorKeepsBacklog does and lets its interval
// come due: each failed refresh keeps the backlog and is counted in
// mview_policy_refresh_failures_total, never as a refresh; once the
// view is repaired the next interval refreshes it.
func TestSchedulerCountsFailedRefreshes(t *testing.T) {
	e, fc := newFakeClockEngine(t)
	defer e.StopScheduler()
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)
	const interval = 50 * time.Millisecond
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshEvery, Interval: interval}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	count := func(name string) float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == name && s.Labels["reason"] == "interval" {
				return s.Value
			}
		}
		return 0
	}
	pending := func() int {
		st, _ := e.ViewStats("v")
		return st.PendingTx
	}
	// tick advances fake time one interval per poll until done.
	tick := func(what string, done func() bool) {
		t.Helper()
		schedWait(t, what, func() bool {
			fc.advance(interval)
			return done()
		})
	}
	corrupt := func(n int64) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if err := e.views["v"].data.Add(tuple.New(1, 2, 10), n); err != nil {
			t.Fatal(err)
		}
	}

	stageBacklog(t, e, 1, 2)
	tick("first refresh", func() bool { return pending() == 0 && count("mview_policy_refreshes_total") >= 1 })

	var del delta.Tx
	del.Delete("R", tuple.New(1, 2))
	exec(t, e, &del)
	corrupt(-1) // the backlog now deletes a derivation the view lacks
	tick("a failed refresh", func() bool { return count("mview_policy_refresh_failures_total") >= 1 })
	refreshes, failures := count("mview_policy_refreshes_total"), count("mview_policy_refresh_failures_total")
	tick("more failed refreshes", func() bool { return count("mview_policy_refresh_failures_total") >= failures+2 })
	if got := count("mview_policy_refreshes_total"); got != refreshes {
		t.Errorf("failed refreshes counted as refreshes: %v -> %v", refreshes, got)
	}
	if pending() != 1 {
		t.Errorf("PendingTx = %d after failed refreshes, want the backlog kept", pending())
	}

	corrupt(1)
	tick("repaired refresh", func() bool { return pending() == 0 })
	if v, _ := e.View("v"); v.Len() != 0 {
		t.Errorf("view after the repaired refresh = %v, want empty", v)
	}
}

// TestSetViewPolicyDrains pins the SetViewPolicy contract: moving a
// backlogged view to an on-commit policy drains the backlog in the
// same call, so no commit can observe an immediate view with stale
// contents.
func TestSetViewPolicyDrains(t *testing.T) {
	e := newEngine(t)
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	stageBacklog(t, e, 1, 2)
	if st, _ := e.ViewStats("v"); st.PendingTx != 1 {
		t.Fatalf("PendingTx = %d, want 1", st.PendingTx)
	}

	if err := e.SetViewPolicy("v", RefreshSpec{Kind: RefreshOnCommit}); err != nil {
		t.Fatal(err)
	}
	pv, err := e.ReadView("v")
	if err != nil {
		t.Fatal(err)
	}
	if spec, d := pv.Policy(); spec.Kind != RefreshOnCommit || d {
		t.Fatalf("policy after change = %v deferred %v", spec, d)
	}
	v, _ := e.View("v")
	if v.Len() != 1 {
		t.Fatalf("backlog not drained by policy change: %v", v)
	}
	if st, _ := e.ViewStats("v"); st.PendingTx != 0 {
		t.Fatalf("PendingTx = %d after drain, want 0", st.PendingTx)
	}

	if err := e.SetViewPolicy("zzz", RefreshSpec{}); err == nil {
		t.Error("unknown view must fail")
	}
}

// TestSchedulerStopIdempotent pins the lifecycle: StopScheduler is
// idempotent, and a stopped scheduler never restarts (a closing engine
// must not leak a wheel goroutine).
func TestSchedulerStopIdempotent(t *testing.T) {
	e, fc := newFakeClockEngine(t)
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshEvery, Interval: 10 * time.Millisecond}}
	if err := e.CreateView(joinViewDef(t, e, "v"), cfg); err != nil {
		t.Fatal(err)
	}
	e.StopScheduler()
	e.StopScheduler()

	// The wheel is gone: staging backlog and advancing past the
	// interval must not refresh anything.
	stageBacklog(t, e, 1, 2)
	fc.advance(time.Second)
	time.Sleep(10 * time.Millisecond)
	if v, _ := e.View("v"); v.Len() != 0 {
		t.Fatal("stopped scheduler still refreshed a view")
	}
}

// TestDisablePolicyRefresh pins the follower contract: policy DDL
// stays in the catalog but drives no refreshes, while an explicit
// refresh still works.
func TestDisablePolicyRefresh(t *testing.T) {
	e, fc := newFakeClockEngine(t)
	cfg := ViewConfig{When: RefreshSpec{Kind: RefreshEvery, Interval: 10 * time.Millisecond}}
	if err := e.CreateView(joinViewDef(t, e, "pol"), cfg); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "per"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	e.DisablePolicyRefresh()

	stageBacklog(t, e, 1, 2)
	fc.advance(time.Second)
	time.Sleep(20 * time.Millisecond) // room for a wrongly enabled wheel to fire
	if err := e.RefreshView("per"); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.View("per"); v.Len() != 1 {
		t.Fatal("explicit refresh on a policy-disabled engine did not apply the backlog")
	}
	if v, _ := e.View("pol"); v.Len() != 0 {
		t.Fatal("policy-driven refresh fired on a policy-disabled engine")
	}
	v, err := e.ReadView("pol")
	if err != nil {
		t.Fatal(err)
	}
	if spec, _ := v.Policy(); spec.Kind != RefreshEvery {
		t.Fatalf("policy DDL lost on disabled engine: %v", spec)
	}
}
