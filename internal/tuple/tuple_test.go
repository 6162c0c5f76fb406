package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEqual(t *testing.T) {
	a := New(1, 2, 3)
	b := New(1, 2, 3)
	c := New(1, 2, 4)
	if !a.Equal(b) {
		t.Error("equal tuples reported unequal")
	}
	if a.Equal(c) {
		t.Error("unequal tuples reported equal")
	}
	if a.Equal(New(1, 2)) {
		t.Error("different arity reported equal")
	}
}

func TestClone(t *testing.T) {
	a := New(1, 2)
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone aliases underlying array")
	}
}

func TestLess(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want bool
	}{
		{New(1, 2), New(1, 3), true},
		{New(1, 3), New(1, 2), false},
		{New(1, 2), New(1, 2), false},
		{New(1), New(1, 0), true},
		{New(-5), New(3), true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareAgreesWithLess: Compare is Less's three-way form, and
// antisymmetric.
func TestCompareAgreesWithLess(t *testing.T) {
	ts := []Tuple{New(), New(-5), New(1), New(1, 0), New(1, 2), New(1, 3), New(3)}
	for _, a := range ts {
		for _, b := range ts {
			c := Compare(a, b)
			if (c < 0) != a.Less(b) || (c > 0) != b.Less(a) || (c == 0) != a.Equal(b) {
				t.Errorf("Compare(%v, %v) = %d, Less %v/%v", a, b, c, a.Less(b), b.Less(a))
			}
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	cases := []Tuple{
		New(),
		New(0),
		New(1, 2, 3),
		New(-1, math.MaxInt64, math.MinInt64),
	}
	for _, tu := range cases {
		got, err := FromKey(tu.Key(), len(tu))
		if err != nil {
			t.Fatalf("FromKey(%v): %v", tu, err)
		}
		if !got.Equal(tu) {
			t.Errorf("round trip = %v, want %v", got, tu)
		}
	}
	if _, err := FromKey("abc", 2); err == nil {
		t.Error("FromKey with bad length should fail")
	}
}

func TestKeyInjective(t *testing.T) {
	f := func(a, b []int64) bool {
		ta, tb := Tuple(a), Tuple(b)
		if len(ta) != len(tb) {
			return true // injectivity only promised per arity
		}
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectAndConcat(t *testing.T) {
	tu := New(10, 20, 30)
	if got := tu.Project([]int{2, 0}); !got.Equal(New(30, 10)) {
		t.Errorf("Project = %v", got)
	}
	if got := New(1).Concat(New(2, 3)); !got.Equal(New(1, 2, 3)) {
		t.Errorf("Concat = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := New(1, -2).String(); got != "(1, -2)" {
		t.Errorf("String = %q", got)
	}
}

// TestJoinTagsTable checks every row of the paper's §5.3 tag table.
func TestJoinTagsTable(t *testing.T) {
	cases := []struct {
		a, b, want Tag
	}{
		{TagInsert, TagInsert, TagInsert},
		{TagInsert, TagDelete, TagIgnore},
		{TagInsert, TagOld, TagInsert},
		{TagDelete, TagInsert, TagIgnore},
		{TagDelete, TagDelete, TagDelete},
		{TagDelete, TagOld, TagDelete},
		{TagOld, TagInsert, TagInsert},
		{TagOld, TagDelete, TagDelete},
		{TagOld, TagOld, TagOld},
	}
	for _, c := range cases {
		if got := JoinTags(c.a, c.b); got != c.want {
			t.Errorf("JoinTags(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJoinTagsIgnoreAbsorbs(t *testing.T) {
	for _, g := range []Tag{TagOld, TagInsert, TagDelete, TagIgnore} {
		if JoinTags(TagIgnore, g) != TagIgnore || JoinTags(g, TagIgnore) != TagIgnore {
			t.Errorf("Ignore must absorb %v", g)
		}
	}
}

func TestJoinTagsCommutative(t *testing.T) {
	tags := []Tag{TagOld, TagInsert, TagDelete, TagIgnore}
	for _, a := range tags {
		for _, b := range tags {
			if JoinTags(a, b) != JoinTags(b, a) {
				t.Errorf("JoinTags not commutative on (%v, %v)", a, b)
			}
		}
	}
}

func TestUnaryTagIdentity(t *testing.T) {
	for _, g := range []Tag{TagOld, TagInsert, TagDelete, TagIgnore} {
		if UnaryTag(g) != g {
			t.Errorf("UnaryTag(%v) = %v", g, UnaryTag(g))
		}
	}
}

func TestTagString(t *testing.T) {
	if TagOld.String() != "old" || TagInsert.String() != "insert" ||
		TagDelete.String() != "delete" || TagIgnore.String() != "ignore" {
		t.Error("tag names do not match the paper's vocabulary")
	}
	if Tag(42).String() == "" {
		t.Error("unknown tag should still render")
	}
}
