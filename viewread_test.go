package mview

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/relation"
	"mview/internal/repl"
)

// encodedView is what encoding/json makes of a view's rows and schema:
// the reference DB.ViewJSON must match byte for byte.
func encodedView(t *testing.T, rows []Row, schema []string) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"rows": rows, "schema": schema})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestViewResultIsCallerOwned pins the DB.View contract over the shared
// per-version memo: each call returns a fresh slice, so reordering or
// truncating one result leaves the next call's order untouched.
func TestViewResultIsCallerOwned(t *testing.T) {
	d := Open()
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 50"}); err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for i := int64(40); i >= 0; i-- {
		ops = append(ops, Insert("r", i%9, i))
	}
	if _, err := d.Exec(ops...); err != nil {
		t.Fatal(err)
	}
	byValues := func(a, b Row) int { return slices.Compare(a.Values, b.Values) }
	first, err := d.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 41 || !slices.IsSortedFunc(first, byValues) {
		t.Fatalf("View = %d rows, sorted %v", len(first), slices.IsSortedFunc(first, byValues))
	}
	want := slices.Clone(first)
	slices.Reverse(first)
	second, err := d.View("v")
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(second, func(a, b Row) int { return -byValues(a, b) })
	second = second[:3]
	third, err := d.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(third, want, func(a, b Row) bool { return byValues(a, b) == 0 && a.Count == b.Count }) {
		t.Fatalf("reordering one View result changed the next: %v", third[:3])
	}
}

// TestViewJSONEqualsMaterialize: after commits that touch the view, the
// memoised rendering is the encoding of a from-scratch evaluation by
// the reference evaluator (eval.Materialize over the same relations),
// and the count and policy come with it.
func TestViewJSONEqualsMaterialize(t *testing.T) {
	d := Open()
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	spec := ViewSpec{From: []string{"r"}, Where: "B > 2", Select: []string{"B"}}
	if err := d.CreateView("v", spec, MaxStaleness(time.Hour)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		if _, err := d.Exec(Insert("r", i, i%6), Delete("r", i-3, (i-3)%6)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := d.Refresh("v"); err != nil {
				t.Fatal(err)
			}
		}
		got, count, p, err := d.ViewJSON("v")
		if err != nil {
			t.Fatal(err)
		}
		rows, err := d.View("v")
		if err != nil {
			t.Fatal(err)
		}
		if want := encodedView(t, rows, []string{"r.B"}); !bytes.Equal(got, want) {
			t.Fatalf("tx %d: ViewJSON = %s, want %s", i, got, want)
		}
		if count != len(rows) || p.Spec != "maxstale=1h0m0s" {
			t.Fatalf("tx %d: count %d (rows %d), policy %q", i, count, len(rows), p.Spec)
		}
		if i%4 != 0 {
			continue
		}
		if want := encodedView(t, referenceRows(t, d, spec), []string{"r.B"}); !bytes.Equal(got, want) {
			t.Fatalf("tx %d: refreshed ViewJSON = %s, eval.Materialize %s", i, got, want)
		}
	}
}

// TestFollowerViewJSONMatchesLeader: a follower's memoised rendering of
// every view equals the leader's, after streamed applies and after a
// gap-forced re-sync replaced its engine.
func TestFollowerViewJSONMatchesLeader(t *testing.T) {
	leader, err := OpenDurable(t.TempDir(), WithSegmentSize(2048))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	replTestDDL(t, leader)
	srv, err := leader.ReplicationServer()
	if err != nil {
		t.Fatal(err)
	}
	srv.Poll = 200 * time.Microsecond
	srv.Heartbeat = 5 * time.Millisecond
	st := &swapTransport{}
	st.set(repl.LocalTransport{S: srv}, false)
	follower, err := openFollowerTransport(st, "f1")
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	rec := []*oracleOps{{}, {}}
	same := func(label string) {
		t.Helper()
		waitReplicated(t, follower, srv.LeaderLSN())
		for _, v := range leader.Views() {
			lj, lc, _, err := leader.ViewJSON(v)
			if err != nil {
				t.Fatal(err)
			}
			fj, fc, _, err := follower.ViewJSON(v)
			if err != nil {
				t.Fatalf("%s: follower view %s: %v", label, v, err)
			}
			if lc != fc || !bytes.Equal(lj, fj) {
				t.Fatalf("%s: view %s: follower body (%d rows) differs from the leader's (%d rows)", label, v, fc, lc)
			}
		}
	}
	runWriters(t, leader, len(rec), 30, 1, rec)
	same("after apply")

	// Cut the follower off, drop its live stream, and checkpoint past the
	// records it still needs: reconnecting must re-sync from a snapshot.
	st.set(nil, true)
	var once sync.Once
	repl.SetStreamWriteHook(func(string) error {
		var injected error
		once.Do(func() { injected = errors.New("injected stream drop") })
		return injected
	})
	defer repl.SetStreamWriteHook(nil)
	deadline := time.Now().Add(15 * time.Second)
	for s := srv.Status(); len(s) != 1 || s[0].Streams != 0; s = srv.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("stream did not drop: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	repl.SetStreamWriteHook(nil)
	runWriters(t, leader, len(rec), 30, 2, rec)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.set(repl.LocalTransport{S: srv}, false)
	same("after re-sync")
	if fst, _ := follower.FollowerStatus(); fst.Resyncs == 0 {
		t.Fatalf("expected a gap-forced re-sync; status %+v", fst)
	}
}

// referenceRows evaluates spec with the reference evaluator
// (internal/eval) over d's current relations: an oracle that shares no
// code with the engine's own evaluator.
func referenceRows(t *testing.T, d *DB, spec ViewSpec) []Row {
	t.Helper()
	v, err := spec.build("(reference)")
	if err != nil {
		t.Fatal(err)
	}
	e := d.engine()
	b, err := expr.Bind(v, e.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]*relation.Relation, len(b.Operands))
	for i, op := range b.Operands {
		if insts[i], err = e.Relation(op.Rel); err != nil {
			t.Fatal(err)
		}
	}
	c, err := eval.Materialize(b, insts, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(c.Tuples())
}
