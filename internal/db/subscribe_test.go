package db

import (
	"testing"

	"mview/internal/delta"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

type capture struct {
	calls int
	ins   []*relation.Counted
	dels  []*relation.Counted
}

func (c *capture) sub(_ string, ins, del *relation.Counted) {
	c.calls++
	c.ins = append(c.ins, ins)
	c.dels = append(c.dels, del)
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
	if c.ins[0].Len() != 1 || !c.ins[0].Has(tuple.New(1, 2, 3)) {
		t.Errorf("inserts = %v", c.ins[0])
	}
	if c.dels[0].Len() != 0 {
		t.Errorf("deletes = %v", c.dels[0])
	}

	// A base change that does not affect the view must not wake the
	// subscriber.
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(9, 99)) // no joining S tuple
	exec(t, e, &tx2)
	if c.calls != 1 {
		t.Errorf("no-op change woke the subscriber: calls = %d", c.calls)
	}

	// Deletions arrive on the delete side.
	var tx3 delta.Tx
	tx3.Delete("S", tuple.New(2, 3))
	exec(t, e, &tx3)
	if c.calls != 2 || c.dels[1].Len() != 1 {
		t.Errorf("calls = %d dels = %v", c.calls, c.dels)
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
	if cr.calls != 1 || cr.ins[0].Len() != 1 {
		t.Errorf("recompute notification: calls=%d ins=%v", cr.calls, cr.ins)
	}
	// Deferred views notify at refresh time, not commit time.
	if cs.calls != 0 {
		t.Fatalf("deferred view notified before refresh")
	}
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	if cs.calls != 1 || cs.ins[0].Len() != 1 {
		t.Errorf("deferred notification: calls=%d", cs.calls)
	}
	// Refresh with nothing pending stays silent.
	if err := e.RefreshView("snap"); err != nil {
		t.Fatal(err)
	}
	if cs.calls != 1 {
		t.Errorf("idle refresh woke subscriber")
	}
}

func TestSubscribeReadBackDuringCallback(t *testing.T) {
	// Callbacks run without the engine lock, so reading the engine
	// from inside one must not deadlock.
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	read := 0
	if _, err := e.Subscribe("v", func(string, *relation.Counted, *relation.Counted) {
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
	if _, err := e.Subscribe("zzz", func(string, *relation.Counted, *relation.Counted) {}); err == nil {
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
	ins, del := countedDiff(old, newC)
	if ins.Count(tuple.New(1)) != 1 || ins.Count(tuple.New(3)) != 1 || ins.Len() != 2 {
		t.Errorf("ins = %v", ins)
	}
	if del.Count(tuple.New(2)) != 1 || del.Len() != 1 {
		t.Errorf("del = %v", del)
	}
}
