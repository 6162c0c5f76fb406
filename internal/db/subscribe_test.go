package db

import (
	"fmt"
	"testing"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

type capture struct {
	calls int
	runs  [][]relation.CountedTuple
}

func (c *capture) sub(_ string, run []relation.CountedTuple) {
	c.calls++
	c.runs = append(c.runs, run)
}

// runString renders a run as "{(1)-1, (2)+1}".
func runString(run []relation.CountedTuple) string {
	s := "{"
	for i, r := range run {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s%+d", r.Tuple, r.Count)
	}
	return s + "}"
}

func TestSubscribeImmediateView(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var c capture
	id, err := e.Subscribe("v", c.sub)
	if err != nil {
		t.Fatal(err)
	}

	// A change that reaches the view fires exactly once.
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	if c.calls != 1 {
		t.Fatalf("calls = %d", c.calls)
	}
	if got := runString(c.runs[0]); got != "{(1, 2, 3)+1}" {
		t.Errorf("run = %s", got)
	}

	// A base change that does not affect the view must not wake the
	// subscriber.
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(9, 99)) // no joining S tuple
	exec(t, e, &tx2)
	if c.calls != 1 {
		t.Errorf("no-op change woke the subscriber: calls = %d", c.calls)
	}

	// Deletions arrive with negative counts.
	var tx3 delta.Tx
	tx3.Delete("S", tuple.New(2, 3))
	exec(t, e, &tx3)
	if c.calls != 2 || runString(c.runs[1]) != "{(1, 2, 3)-1}" {
		t.Errorf("calls = %d runs = %v", c.calls, c.runs)
	}

	// After unsubscribe, silence.
	if err := e.Unsubscribe("v", id); err != nil {
		t.Fatal(err)
	}
	var tx4 delta.Tx
	tx4.Insert("S", tuple.New(2, 3))
	exec(t, e, &tx4)
	if c.calls != 2 {
		t.Errorf("unsubscribed but woken: calls = %d", c.calls)
	}
}

func TestSubscribeDeferredAndRecompute(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "snap"), ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "rec"), ViewConfig{Policy: PolicyRecompute}); err != nil {
		t.Fatal(err)
	}
	var cs, cr capture
	if _, err := e.Subscribe("snap", cs.sub); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Subscribe("rec", cr.sub); err != nil {
		t.Fatal(err)
	}

	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)

	// Recompute views notify with the diff of old vs new contents.
	if cr.calls != 1 || runString(cr.runs[0]) != "{(1, 2, 3)+1}" {
		t.Errorf("recompute notification: calls=%d runs=%v", cr.calls, cr.runs)
	}
	// Deferred views notify at refresh time, not commit time.
	if cs.calls != 0 {
		t.Fatalf("deferred view notified before refresh")
	}
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	if cs.calls != 1 || runString(cs.runs[0]) != "{(1, 2, 3)+1}" {
		t.Errorf("deferred notification: calls=%d", cs.calls)
	}
	// Refresh with nothing pending stays silent.
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	if cs.calls != 1 {
		t.Errorf("idle refresh woke subscriber")
	}

	// A notification carries the view's net change, on every path: a
	// differential commit, a recompute, an on-demand refresh, and a
	// group-commit batch (per-transaction deltas). v = π_A R hides a
	// replace that keeps A, so such a replace fires nothing; a replace
	// that moves A fires the same run everywhere.
	paths := []struct {
		name string
		cfg  ViewConfig
	}{
		{"pdiff", ViewConfig{}},
		{"prec", ViewConfig{Policy: PolicyRecompute}},
		{"psnap", ViewConfig{When: RefreshSpec{Kind: RefreshOnDemand}}},
	}
	caps := make([]capture, len(paths))
	for i, p := range paths {
		def := expr.View{Name: p.name, Operands: []expr.Operand{{Rel: "R"}}, Project: []schema.Attribute{"A"}}
		if err := e.CreateView(def, p.cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Subscribe(p.name, caps[i].sub); err != nil {
			t.Fatal(err)
		}
	}
	replace := func(from, to tuple.Tuple) *delta.Tx {
		tx := &delta.Tx{}
		tx.Delete("R", from).Insert("R", to)
		return tx
	}
	// commit runs txs as one group-commit batch when there are several,
	// then refreshes the on-demand view, and checks every path fired
	// want (nothing when want is empty).
	commit := func(step, want string, txs ...*delta.Tx) {
		t.Helper()
		before := make([]int, len(caps))
		for i := range caps {
			before[i] = caps[i].calls
		}
		if len(txs) == 1 {
			exec(t, e, txs[0])
		} else {
			reqs := make([]*groupReq, len(txs))
			for i, tx := range txs {
				reqs[i] = &groupReq{tx: tx, done: make(chan struct{})}
			}
			(&group{e: e, maxBatch: len(txs)}).run(reqs, 0)
			for _, r := range reqs {
				if r.err != nil {
					t.Fatalf("%s: %v", step, r.err)
				}
			}
		}
		if err := e.RefreshView("psnap"); err != nil {
			t.Fatal(err)
		}
		for i, p := range paths {
			c := &caps[i]
			switch fired := c.calls - before[i]; {
			case want == "" && fired != 0:
				t.Errorf("%s: %s fired %v for a change that cancels out", step, p.name, c.runs[before[i]:])
			case want != "" && (fired != 1 || runString(c.runs[len(c.runs)-1]) != want):
				t.Errorf("%s: %s fired %d runs %v, want one %s", step, p.name, fired, c.runs[before[i]:], want)
			}
		}
	}
	commit("replace", "{(1)-1, (7)+1}", replace(tuple.New(1, 2), tuple.New(7, 2)))
	commit("serial net-zero replace", "", replace(tuple.New(7, 2), tuple.New(7, 3)))
	commit("serial replace", "{(7)-1, (8)+1}", replace(tuple.New(7, 3), tuple.New(8, 3)))
	commit("batched net-zero replaces", "",
		replace(tuple.New(8, 3), tuple.New(8, 4)), replace(tuple.New(8, 4), tuple.New(8, 5)))
	commit("batched replace", "{(8)-1, (9)+1}",
		replace(tuple.New(8, 5), tuple.New(9, 5)), replace(tuple.New(9, 5), tuple.New(9, 6)))
}

func TestSubscribeReadBackDuringCallback(t *testing.T) {
	// Callbacks run without the engine lock, so reading the engine
	// from inside one must not deadlock.
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	read := 0
	if _, err := e.Subscribe("v", func(string, []relation.CountedTuple) {
		if _, err := e.View("v"); err != nil {
			t.Errorf("View inside callback: %v", err)
		}
		read++
	}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	if read != 1 {
		t.Errorf("callback did not run: %d", read)
	}
}

func TestSubscribeErrors(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Subscribe("zzz", func(string, []relation.CountedTuple) {}); err == nil {
		t.Error("unknown view must fail")
	}
	if err := e.Unsubscribe("zzz", 0); err == nil {
		t.Error("unknown view must fail")
	}
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Subscribe("v", nil); err == nil {
		t.Error("nil subscriber must fail")
	}
	if err := e.Unsubscribe("v", 42); err != nil {
		t.Errorf("unknown id should be a no-op: %v", err)
	}
}

func TestCountedDiff(t *testing.T) {
	s := schema.MustScheme("A")
	old := relation.NewCounted(s)
	_ = old.Add(tuple.New(1), 2)
	_ = old.Add(tuple.New(2), 1)
	newC := relation.NewCounted(s)
	_ = newC.Add(tuple.New(1), 3) // +1
	_ = newC.Add(tuple.New(3), 1) // new
	if got := runString(countedDiff(old, newC)); got != "{(1)+1, (2)-1, (3)+1}" {
		t.Errorf("run = %s", got)
	}
}
