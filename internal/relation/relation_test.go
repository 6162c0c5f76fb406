package relation

import (
	"testing"

	"mview/internal/schema"
	"mview/internal/tuple"
)

func ts(attrs ...schema.Attribute) *schema.Scheme { return schema.MustScheme(attrs...) }

func TestInsertDeleteHasLen(t *testing.T) {
	r := New(ts("A", "B"))
	if err := r.Insert(tuple.New(1, 2)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := r.Insert(tuple.New(1, 2)); err != nil {
		t.Fatalf("duplicate Insert: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1 (set semantics)", r.Len())
	}
	if !r.Has(tuple.New(1, 2)) {
		t.Error("Has(1,2) = false")
	}
	r.Delete(tuple.New(1, 2))
	if r.Len() != 0 || r.Has(tuple.New(1, 2)) {
		t.Error("Delete did not remove tuple")
	}
	r.Delete(tuple.New(9, 9)) // absent: no-op
}

func TestInsertArityMismatch(t *testing.T) {
	r := New(ts("A", "B"))
	if err := r.Insert(tuple.New(1)); err == nil {
		t.Error("want arity error")
	}
}

func TestInsertClonesTuple(t *testing.T) {
	r := New(ts("A"))
	mut := tuple.New(7)
	_ = r.Insert(mut)
	mut[0] = 8
	if !r.Has(tuple.New(7)) {
		t.Error("Insert must store a copy, not alias caller memory")
	}
}

func TestTuplesSorted(t *testing.T) {
	r := MustFromTuples(ts("A"), tuple.New(3), tuple.New(1), tuple.New(2))
	got := r.Tuples()
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("Tuples not sorted: %v", got)
		}
	}
}

func TestCloneEqual(t *testing.T) {
	r := MustFromTuples(ts("A", "B"), tuple.New(1, 2), tuple.New(3, 4))
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone not Equal")
	}
	c.Delete(tuple.New(1, 2))
	if r.Equal(c) {
		t.Error("Equal after divergence")
	}
	if r.Len() != 2 {
		t.Error("Clone aliases map")
	}
	if r.Equal(MustFromTuples(ts("X", "Y"), tuple.New(1, 2), tuple.New(3, 4))) {
		t.Error("Equal must compare schemes")
	}
}

func TestUnionDiffIntersect(t *testing.T) {
	s := ts("A")
	a := MustFromTuples(s, tuple.New(1), tuple.New(2))
	b := MustFromTuples(s, tuple.New(2), tuple.New(3))

	u, err := Union(a, b)
	if err != nil {
		t.Fatalf("Union: %v", err)
	}
	if u.Len() != 3 {
		t.Errorf("Union Len = %d, want 3", u.Len())
	}

	d, err := Diff(a, b)
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	if d.Len() != 1 || !d.Has(tuple.New(1)) {
		t.Errorf("Diff = %v", d)
	}

	// a ∩ b = a − (a − b)
	if i, _ := Diff(a, d); i.Len() != 1 || !i.Has(tuple.New(2)) {
		t.Errorf("a − (a − b) = %v", i)
	}

	if _, err := Union(a, MustFromTuples(ts("Z"), tuple.New(1))); err == nil {
		t.Error("Union across schemes should fail")
	}
	if _, err := Diff(a, New(ts("A", "B"))); err == nil {
		t.Error("Diff across schemes should fail")
	}
}

// TestProjectSetCollapsesDuplicates: projecting a set relation
// collapses the tuples that agree on the kept attributes into one, whose
// §5.2 counter says how many there were.
func TestProjectSetCollapsesDuplicates(t *testing.T) {
	r := MustFromTuples(ts("A", "B"), tuple.New(1, 10), tuple.New(2, 10), tuple.New(3, 20))
	got, err := ProjectCounted(FromRelation(r), []schema.Attribute{"B"})
	if err != nil {
		t.Fatalf("ProjectCounted: %v", err)
	}
	if got.Len() != 2 || got.Count(tuple.New(10)) != 2 || got.Count(tuple.New(20)) != 1 {
		t.Errorf("π_B = %v, want {(10)×2, (20)×1}", got)
	}
	if _, err := ProjectCounted(FromRelation(r), []schema.Attribute{"Z"}); err == nil {
		t.Error("Project on unknown attribute should fail")
	}
}

func TestStringDeterministic(t *testing.T) {
	r := MustFromTuples(ts("A"), tuple.New(2), tuple.New(1))
	if got := r.String(); got != "{(1), (2)}" {
		t.Errorf("String = %q", got)
	}
}
