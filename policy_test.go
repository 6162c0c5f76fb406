package mview

// Public-API tests for the refresh-policy family: the policy matrix
// oracle (every policy converges to on-commit contents once quiesced,
// under every commit configuration), query-side staleness bounds,
// durable replay of SetPolicy, the opening default, and the follower
// contract for policy DDL.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mview/internal/repl"
)

// rowsByKey folds view rows into a multiplicity map so contents can be
// compared independent of iteration order.
func rowsByKey(rows []Row) map[string]int64 {
	m := make(map[string]int64, len(rows))
	for _, r := range rows {
		m[fmt.Sprint(r.Values)] += r.Count
	}
	return m
}

// TestPolicyMatrixOracle drives the same concurrent workload through
// one view per policy under every commit configuration (group commit
// on and off) and checks that, once quiesced with
// RefreshAll, every policy's view matches the always-fresh on-commit
// oracle. Policies change WHEN maintenance runs, never WHAT the view
// converges to.
func TestPolicyMatrixOracle(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"solo", nil},
		{"group", []Option{WithGroupCommit(16, time.Millisecond)}},
	}
	policies := []struct {
		view string
		opt  ViewOption
	}{
		{"vdemand", OnDemand()},
		{"vevery", Every(time.Hour)}, // never due during the test
		{"vslo", MaxStaleness(time.Hour)},
		{"vauto", AdaptivePolicy()},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			d := Open(cfg.opts...)
			if err := d.CreateRelation("r", "A", "B"); err != nil {
				t.Fatal(err)
			}
			spec := ViewSpec{From: []string{"r"}, Where: "B < 100"}
			if err := d.CreateView("oracle", spec, OnCommit()); err != nil {
				t.Fatal(err)
			}
			for _, p := range policies {
				if err := d.CreateView(p.view, spec, p.opt); err != nil {
					t.Fatal(err)
				}
			}

			// Disjoint key ranges per writer; every third insert is
			// deleted again in a later transaction, so convergence also
			// covers net-delete maintenance.
			const writers, txs = 4, 30
			var wg sync.WaitGroup
			for w := int64(0); w < writers; w++ {
				wg.Add(1)
				go func(w int64) {
					defer wg.Done()
					for i := int64(0); i < txs; i++ {
						if _, err := d.Exec(Insert("r", w*1000+i, i%100)); err != nil {
							t.Error(err)
							return
						}
						if i%3 == 0 && i > 0 {
							if _, err := d.Exec(Delete("r", w*1000+i-1, (i-1)%100)); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if err := d.RefreshAll(); err != nil {
				t.Fatal(err)
			}

			oracle, err := d.View("oracle")
			if err != nil {
				t.Fatal(err)
			}
			if len(oracle) == 0 {
				t.Fatal("oracle view is empty; workload never landed")
			}
			want := rowsByKey(oracle)
			for _, p := range policies {
				rows, err := d.View(p.view)
				if err != nil {
					t.Fatal(err)
				}
				got := rowsByKey(rows)
				if len(got) != len(want) {
					t.Fatalf("%s: %d distinct rows, oracle has %d", p.view, len(got), len(want))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("%s: row %s count %d, oracle %d", p.view, k, got[k], n)
					}
				}
				if st, err := d.Stats(p.view); err != nil || st.PendingTx != 0 {
					t.Fatalf("%s: pending work after quiesce: %+v, %v", p.view, st, err)
				}
			}
		})
	}
}

// TestQueryStalenessBounds pins the query-side contract: MaxStale(d)
// refreshes only when the view is more than d stale, Consistent always
// serves fresh contents, and the tightest of several bounds wins.
func TestQueryStalenessBounds(t *testing.T) {
	d := Open()
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateView("v", ViewSpec{From: []string{"r"}}, OnDemand()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(Insert("r", 1, 2)); err != nil {
		t.Fatal(err)
	}

	// Unbounded read: snapshot semantics, stale contents.
	if rows, err := d.View("v"); err != nil || len(rows) != 0 {
		t.Fatalf("unbounded read = %+v, %v (want stale empty)", rows, err)
	}
	// A loose bound tolerates the age (seconds old at most; bound 1h).
	if rows, err := d.View("v", MaxStale(time.Hour)); err != nil || len(rows) != 0 {
		t.Fatalf("loose-bound read = %+v, %v (want stale empty)", rows, err)
	}
	if st, _ := d.Stats("v"); st.PendingTx != 1 {
		t.Fatalf("bounded-but-tolerant read refreshed: %+v", st)
	}
	// The tightest of several bounds wins: Consistent forces freshness.
	rows, err := d.View("v", MaxStale(time.Hour), Consistent())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("consistent read = %+v, want 1 row", rows)
	}
	if st, _ := d.Stats("v"); st.PendingTx != 0 {
		t.Fatalf("consistent read left backlog: %+v", st)
	}

	// MaxStale clamps negatives to 0 (= Consistent).
	if _, err := d.Exec(Insert("r", 3, 4)); err != nil {
		t.Fatal(err)
	}
	if rows, _ := d.View("v", MaxStale(-time.Second)); len(rows) != 2 {
		t.Fatalf("negative-bound read = %+v, want fresh 2 rows", rows)
	}
}

// TestSetPolicyDurableReplay: a policy change is DDL — logged, then
// replayed on reopen like any view definition.
func TestSetPolicyDurableReplay(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateView("v", ViewSpec{From: []string{"r"}}, OnDemand()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(Insert("r", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if st, _ := d.Stats("v"); st.PendingTx != 1 {
		t.Fatalf("ondemand view staged nothing: %+v", st)
	}

	// Tightening to on-commit drains the backlog in the same call.
	if err := d.SetPolicy("v", OnCommit()); err != nil {
		t.Fatal(err)
	}
	if rows, _ := d.View("v"); len(rows) != 1 {
		t.Fatalf("backlog survived SetPolicy(OnCommit): %+v", rows)
	}
	if err := d.SetPolicy("v", MaxStaleness(250*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	p, err := d.Policy("v")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec != "maxstale=250ms" || p.Bound != 250*time.Millisecond || p.Immediate {
		t.Fatalf("policy = %+v", p)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDur(t, dir)
	defer d2.Close()
	p, err = d2.Policy("v")
	if err != nil {
		t.Fatal(err)
	}
	if p.Spec != "maxstale=250ms" || p.Bound != 250*time.Millisecond {
		t.Fatalf("policy after reopen = %+v", p)
	}
	if err := d2.SetPolicy("zzz", OnCommit()); err == nil {
		t.Error("SetPolicy on unknown view must fail")
	}
	if err := d2.SetPolicy("v", WithFilter()); err == nil ||
		!strings.Contains(err.Error(), "not a refresh policy") {
		t.Errorf("SetPolicy with a non-policy option: %v", err)
	}
}

// TestWithDefaultPolicy: the opening default applies to views created
// without an explicit policy, an explicit one wins, and the default is
// materialized into the log so reopening under a different default
// leaves existing views unchanged.
func TestWithDefaultPolicy(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, WithDefaultPolicy(OnDemand()))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	spec := ViewSpec{From: []string{"r"}}
	if err := d.CreateView("vdef", spec); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateView("vexp", spec, Every(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if p, _ := d.Policy("vdef"); p.Spec != "ondemand" {
		t.Fatalf("defaulted view policy = %+v", p)
	}
	if p, _ := d.Policy("vexp"); p.Spec != "every=1m0s" {
		t.Fatalf("explicit view policy = %+v", p)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with no default (built-in oncommit): existing views keep
	// the policy they were created under.
	d2 := openDur(t, dir)
	defer d2.Close()
	if p, _ := d2.Policy("vdef"); p.Spec != "ondemand" {
		t.Fatalf("defaulted view policy after reopen = %+v", p)
	}
	if err := d2.CreateView("vnew", spec); err != nil {
		t.Fatal(err)
	}
	if p, _ := d2.Policy("vnew"); p.Spec != "oncommit" {
		t.Fatalf("built-in default = %+v", p)
	}

	// A non-policy or invalid default surfaces at first use.
	bad := Open(WithDefaultPolicy(WithFilter()))
	if err := bad.CreateRelation("r", "A"); err != nil {
		t.Fatal(err)
	}
	if err := bad.CreateView("v", ViewSpec{From: []string{"r"}}); err == nil ||
		!strings.Contains(err.Error(), "not a refresh policy") {
		t.Errorf("non-policy default: %v", err)
	}
	bad2 := Open(WithDefaultPolicy(Every(0)))
	if err := bad2.CreateRelation("r", "A"); err != nil {
		t.Fatal(err)
	}
	if err := bad2.CreateView("v", ViewSpec{From: []string{"r"}}); err == nil {
		t.Error("invalid default policy must fail at first use")
	}
}

// TestPolicyOptionValidation pins constructor errors and the stable
// option-name round trip every catalog surface (WAL replay, HTTP, CLI)
// relies on.
func TestPolicyOptionValidation(t *testing.T) {
	d := Open()
	if err := d.CreateRelation("r", "A"); err != nil {
		t.Fatal(err)
	}
	spec := ViewSpec{From: []string{"r"}}
	if err := d.CreateView("v", spec, Every(0)); err == nil {
		t.Error("Every(0) must fail")
	}
	if err := d.CreateView("v", spec, MaxStaleness(-time.Second)); err == nil {
		t.Error("MaxStaleness(-1s) must fail")
	}
	if err := d.CreateView("v", spec); err != nil {
		t.Fatal(err)
	}
	if err := d.SetPolicy("v", Every(0)); err == nil {
		t.Error("SetPolicy(Every(0)) must fail")
	}

	// The unknown-option error teaches the caller the known names.
	_, err := ParseViewOption("bogus")
	if err == nil {
		t.Fatal("unknown option must fail")
	}
	for _, want := range []string{"oncommit", "ondemand", "every=<dur>", "maxstale=<dur>", "autopolicy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-option error misses %q: %v", want, err)
		}
	}
	if _, err := ParseViewOption("every=nope"); err == nil {
		t.Error("bad interval must fail")
	}
	if _, err := ParseViewOption("maxstale=-1s"); err == nil {
		t.Error("negative bound must fail")
	}

	// Every stable name round-trips through ParseViewOption unchanged —
	// this is what makes WAL replay and the HTTP/CLI surfaces agree.
	names := []string{
		"oncommit", "ondemand", "every=1s", "maxstale=500ms", "autopolicy",
		"recompute", "adaptive", "filtered", "rowbyrow",
	}
	for _, n := range names {
		o, err := ParseViewOption(n)
		if err != nil {
			t.Errorf("ParseViewOption(%q): %v", n, err)
			continue
		}
		if o.name != n {
			t.Errorf("ParseViewOption(%q).name = %q", n, o.name)
		}
	}
	// deferred, which logs written before the policy options can hold,
	// still parses — as ondemand — but is no longer taught.
	if o, err := ParseViewOption("deferred"); err != nil || o.name != "ondemand" {
		t.Errorf(`ParseViewOption("deferred") = %q, %v; want ondemand`, o.name, err)
	}
	if strings.Contains(err.Error(), "deferred") {
		t.Errorf("unknown-option error still teaches deferred: %v", err)
	}
}

// TestFollowerPolicyDDL: policy changes ride the replication stream
// like any DDL — the follower's catalog mirrors the leader's — but a
// follower never accepts policy writes of its own.
func TestFollowerPolicyDDL(t *testing.T) {
	dir := t.TempDir()
	leader := openDur(t, dir)
	defer leader.Close()
	if err := leader.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := leader.CreateView("v", ViewSpec{From: []string{"r"}}, OnDemand()); err != nil {
		t.Fatal(err)
	}
	srv, err := leader.ReplicationServer()
	if err != nil {
		t.Fatal(err)
	}
	srv.Poll = 200 * time.Microsecond
	follower, err := openFollowerTransport(repl.LocalTransport{S: srv}, "f1")
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	waitReplicated(t, follower, srv.LeaderLSN())

	// The bootstrapped catalog carries the creation-time policy.
	if p, err := follower.Policy("v"); err != nil || p.Spec != "ondemand" {
		t.Fatalf("bootstrapped policy = %+v, %v", p, err)
	}

	// A leader-side SetPolicy streams to the follower.
	if err := leader.SetPolicy("v", MaxStaleness(100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, follower, srv.LeaderLSN())
	if p, err := follower.Policy("v"); err != nil || p.Spec != "maxstale=100ms" {
		t.Fatalf("streamed policy = %+v, %v", p, err)
	}

	// A view created after the follower connected replicates with its
	// policy attached.
	if err := leader.CreateView("vlate", ViewSpec{From: []string{"r"}}, Every(time.Minute)); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, follower, srv.LeaderLSN())
	if p, err := follower.Policy("vlate"); err != nil || p.Spec != "every=1m0s" {
		t.Fatalf("late view policy = %+v, %v", p, err)
	}

	// Followers are read-only for policy DDL.
	if err := follower.SetPolicy("v", OnCommit()); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("SetPolicy on follower: %v", err)
	}
}
