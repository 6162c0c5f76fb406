package workload

import (
	"testing"

	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func TestDeterministicPerSeed(t *testing.T) {
	a := New(7).Tuple(3, 100)
	b := New(7).Tuple(3, 100)
	if !a.Equal(b) {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
	c := New(8).Tuple(3, 100)
	if a.Equal(c) {
		t.Log("different seeds coincided (possible but unlikely)")
	}
}

func TestTuplesDistinct(t *testing.T) {
	g := New(1)
	ts, err := g.Tuples(2, 500, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, tu := range ts {
		if seen[tu.Key()] {
			t.Fatal("duplicate tuple")
		}
		seen[tu.Key()] = true
		for _, v := range tu {
			if v < 0 || v >= 100 {
				t.Fatalf("value %d outside domain", v)
			}
		}
	}
	if _, err := g.Tuples(1, 200, 100); err == nil {
		t.Error("impossible distinctness must fail")
	}
}

func TestRelationGeneration(t *testing.T) {
	g := New(2)
	s := schema.MustScheme("A", "B")
	r, err := g.Relation(s, 50, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 50 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestZipfSkew(t *testing.T) {
	g := New(3)
	vals := g.Zipf(5000, 1000, 1.5)
	counts := make(map[tuple.Value]int)
	for _, v := range vals {
		if v < 0 || v >= 1000 {
			t.Fatalf("value %d outside domain", v)
		}
		counts[v]++
	}
	// Zipf must concentrate mass: the most frequent value should be
	// far above uniform expectation (5 per value).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 100 {
		t.Errorf("max frequency %d too small for skewed data", max)
	}
	// Skew below 1 is clamped rather than panicking.
	_ = New(4).Zipf(10, 100, 0.5)
}

func TestSampleAndFresh(t *testing.T) {
	g := New(4)
	s := schema.MustScheme("A")
	r := relation.MustFromTuples(s, tuple.New(1), tuple.New(2), tuple.New(3))
	got := g.Sample(r, 2)
	if len(got) != 2 {
		t.Errorf("Sample = %v", got)
	}
	all := g.Sample(r, 10)
	if len(all) != 3 {
		t.Errorf("oversample = %v", all)
	}
	fresh, err := g.FreshTuples(r, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range fresh {
		if r.Has(tu) {
			t.Errorf("fresh tuple %v already present", tu)
		}
	}
	if _, err := g.FreshTuples(relation.MustFromTuples(s, tuple.New(0), tuple.New(1)), 5, 2); err == nil {
		t.Error("exhausted domain must fail")
	}
}

func TestThresholdStream(t *testing.T) {
	g := New(5)
	ts := g.ThresholdStream(2, 2000, 50, 100, 0.25)
	below := 0
	for _, tu := range ts {
		if tu[0] < 50 {
			below++
		}
	}
	frac := float64(below) / 2000
	if frac < 0.18 || frac > 0.32 {
		t.Errorf("relevant fraction = %.3f, want ≈ 0.25", frac)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad threshold must panic")
		}
	}()
	g.ThresholdStream(2, 1, 100, 100, 0.5)
}

func TestChainJoinEvaluates(t *testing.T) {
	g := New(6)
	c, err := g.Chain(3, 40, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names) != 3 || len(c.Insts) != 3 {
		t.Fatalf("chain = %+v", c)
	}
	b, err := expr.Bind(c.View, c.DB)
	if err != nil {
		t.Fatal(err)
	}
	v, err := eval.Materialize(b, c.Insts, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With rows≈domain the chain join is expected to be non-empty.
	if v.Len() == 0 {
		t.Error("chain join unexpectedly empty; check generator fan-out")
	}
	if _, err := g.Chain(0, 1, 1); err == nil {
		t.Error("p=0 must fail")
	}
}

func TestOrdersScenario(t *testing.T) {
	g := New(7)
	w, err := g.Orders(100, 3, 10, 4, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	if w.Orders.Len() != 100 {
		t.Errorf("orders = %d", w.Orders.Len())
	}
	if w.Items.Len() < 100 {
		t.Errorf("items = %d, want ≥ 100", w.Items.Len())
	}
	// The natural join on OID must cover every item row.
	v, err := expr.NaturalJoin("oi", w.DB, "orders", "items")
	if err != nil {
		t.Fatal(err)
	}
	b, err := expr.Bind(v, w.DB)
	if err != nil {
		t.Fatal(err)
	}
	j, err := eval.Materialize(b, []*relation.Relation{w.Orders, w.Items}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != w.Items.Len() {
		t.Errorf("join = %d rows, items = %d", j.Len(), w.Items.Len())
	}
}
