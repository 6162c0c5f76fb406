package relation

import (
	"testing"

	"mview/internal/schema"
	"mview/internal/tuple"
)

func TestCountedAddAndRemoveAtZero(t *testing.T) {
	c := NewCounted(ts("A"))
	if err := c.Add(tuple.New(1), 2); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if got := c.Count(tuple.New(1)); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
	if err := c.Add(tuple.New(1), -1); err != nil {
		t.Fatalf("Add -1: %v", err)
	}
	if !c.Has(tuple.New(1)) {
		t.Error("tuple should remain at count 1")
	}
	if err := c.Add(tuple.New(1), -1); err != nil {
		t.Fatalf("Add -1: %v", err)
	}
	if c.Has(tuple.New(1)) || c.Len() != 0 {
		t.Error("tuple with zero counter must be removed (§5.2)")
	}
}

func TestCountedNegativeCounterRejected(t *testing.T) {
	c := NewCounted(ts("A"))
	if err := c.Add(tuple.New(1), -1); err == nil {
		t.Error("negative counter must be rejected")
	}
	_ = c.Add(tuple.New(2), 1)
	if err := c.Add(tuple.New(2), -5); err == nil {
		t.Error("underflow must be rejected")
	}
}

func TestCountedAddZeroNoop(t *testing.T) {
	c := NewCounted(ts("A"))
	if err := c.Add(tuple.New(1), 0); err != nil {
		t.Fatalf("Add 0: %v", err)
	}
	if c.Len() != 0 {
		t.Error("Add 0 must not create a tuple")
	}
}

func TestCountedArity(t *testing.T) {
	c := NewCounted(ts("A", "B"))
	if err := c.Add(tuple.New(1), 1); err == nil {
		t.Error("want arity error")
	}
}

func TestFromRelationAndToRelation(t *testing.T) {
	r := MustFromTuples(ts("A"), tuple.New(1), tuple.New(2))
	c := FromRelation(r)
	if c.Len() != 2 || c.Count(tuple.New(1)) != 1 {
		t.Errorf("FromRelation: %v", c)
	}
	back := New(r.Scheme())
	c.Each(func(t tuple.Tuple, _ int64) { _ = back.Insert(t) })
	if !back.Equal(r) {
		t.Errorf("collapsed back = %v, want %v", back, r)
	}
}

// addAll adds sign × every counter of o to c: ⊎ for +1, ⊖ for −1.
func addAll(c, o *Counted, sign int64) error {
	var err error
	o.Each(func(t tuple.Tuple, n int64) {
		if err == nil {
			err = c.Add(t, sign*n)
		}
	})
	return err
}

func TestCountedAddSigned(t *testing.T) {
	a := NewCounted(ts("A"))
	_ = a.Add(tuple.New(1), 1)
	_ = a.Add(tuple.New(2), 2)
	b := NewCounted(ts("A"))
	_ = b.Add(tuple.New(2), 1)
	_ = b.Add(tuple.New(3), 1)

	if err := addAll(a, b, 1); err != nil {
		t.Fatalf("⊎: %v", err)
	}
	if a.Count(tuple.New(2)) != 3 || a.Count(tuple.New(3)) != 1 {
		t.Errorf("after ⊎: %v", a)
	}
	if err := addAll(a, b, -1); err != nil {
		t.Fatalf("⊖: %v", err)
	}
	if a.Count(tuple.New(2)) != 2 || a.Has(tuple.New(3)) {
		t.Errorf("after ⊖: %v", a)
	}
	if err := a.Add(tuple.New(3), -1); err == nil {
		t.Error("a counter going negative should fail")
	}
	if err := a.Add(tuple.New(1, 2), 1); err == nil {
		t.Error("Add of another arity should fail")
	}
}

func TestCountedEqualAndClone(t *testing.T) {
	a := NewCounted(ts("A"))
	_ = a.Add(tuple.New(1), 2)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not Equal")
	}
	_ = b.Add(tuple.New(1), 1)
	if a.Equal(b) {
		t.Error("Equal must compare counts")
	}
	if a.Count(tuple.New(1)) != 2 {
		t.Error("Clone aliases map")
	}
}

// TestExample51 reproduces the paper's Example 5.1: the project view
// π_B(r) over r = {(1,10), (2,10), (3,20)}. Deleting (3,20) removes 20
// from the view, but deleting (1,10) must NOT remove 10, because (2,10)
// still contributes it. Counters make both cases uniform.
func TestExample51(t *testing.T) {
	r := MustFromTuples(ts("A", "B"),
		tuple.New(1, 10), tuple.New(2, 10), tuple.New(3, 20))
	v, err := ProjectCounted(FromRelation(r), []schema.Attribute{"B"})
	if err != nil {
		t.Fatalf("ProjectCounted: %v", err)
	}
	if v.Count(tuple.New(10)) != 2 || v.Count(tuple.New(20)) != 1 {
		t.Fatalf("initial view = %v", v)
	}

	// delete(R, {(3,20)}): view loses 20.
	del1, _ := ProjectCounted(FromRelation(MustFromTuples(ts("A", "B"), tuple.New(3, 20))), []schema.Attribute{"B"})
	if err := addAll(v, del1, -1); err != nil {
		t.Fatalf("⊖: %v", err)
	}
	if v.Has(tuple.New(20)) {
		t.Error("20 should leave the view")
	}

	// delete(R, {(1,10)}): view must keep 10 with count 1.
	del2, _ := ProjectCounted(FromRelation(MustFromTuples(ts("A", "B"), tuple.New(1, 10))), []schema.Attribute{"B"})
	if err := addAll(v, del2, -1); err != nil {
		t.Fatalf("⊖: %v", err)
	}
	if v.Count(tuple.New(10)) != 1 {
		t.Errorf("10 should survive with count 1, view = %v", v)
	}
}

// TestProjectDistributesOverDifference checks the §5.2 claim that the
// counted projection distributes over difference:
// π(r1 ⊖ r2) = π(r1) ⊖ π(r2).
func TestProjectDistributesOverDifference(t *testing.T) {
	s := ts("A", "B")
	r1 := MustFromTuples(s, tuple.New(1, 10), tuple.New(2, 10), tuple.New(3, 20), tuple.New(4, 30))
	r2 := MustFromTuples(s, tuple.New(1, 10), tuple.New(3, 20))

	diff, _ := Diff(r1, r2)
	left, _ := ProjectCounted(FromRelation(diff), []schema.Attribute{"B"})

	right, _ := ProjectCounted(FromRelation(r1), []schema.Attribute{"B"})
	sub, _ := ProjectCounted(FromRelation(r2), []schema.Attribute{"B"})
	if err := addAll(right, sub, -1); err != nil {
		t.Fatalf("⊖: %v", err)
	}
	if !left.Equal(right) {
		t.Errorf("π(r1−r2) = %v, π(r1)⊖π(r2) = %v", left, right)
	}
}

func TestProjectCountedSums(t *testing.T) {
	c := NewCounted(ts("A", "B"))
	_ = c.Add(tuple.New(1, 10), 2)
	_ = c.Add(tuple.New(2, 10), 3)
	got, err := ProjectCounted(c, []schema.Attribute{"B"})
	if err != nil {
		t.Fatalf("ProjectCounted: %v", err)
	}
	if got.Count(tuple.New(10)) != 5 {
		t.Errorf("counter sum = %d, want 5", got.Count(tuple.New(10)))
	}
	if _, err := ProjectCounted(c, []schema.Attribute{"Z"}); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestCountedString(t *testing.T) {
	c := NewCounted(ts("A"))
	_ = c.Add(tuple.New(2), 1)
	_ = c.Add(tuple.New(1), 3)
	if got := c.String(); got != "{(1)×3, (2)×1}" {
		t.Errorf("String = %q", got)
	}
}

func TestCountedAccessors(t *testing.T) {
	c := NewCounted(ts("A"))
	if !c.Scheme().Equal(ts("A")) {
		t.Error("Scheme accessor broken")
	}
	_ = c.Add(tuple.New(1), 2)
	_ = c.Add(tuple.New(2), 1)
	sum := int64(0)
	c.Each(func(_ tuple.Tuple, n int64) { sum += n })
	if sum != 3 {
		t.Errorf("Each sum = %d", sum)
	}
}
