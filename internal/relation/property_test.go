package relation

// Algebraic property tests over randomly generated relations, using
// testing/quick. These pin the laws the differential machinery relies
// on: distributivity of join over union/difference, counter exactness,
// and the §5.2 redefinitions.

import (
	"testing"
	"testing/quick"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// relGen decodes a byte string into a small relation over (A, B) with
// values in [0, 8).
func relGen(data []byte, s *schema.Scheme) *Relation {
	r := New(s)
	for i := 0; i+1 < len(data); i += 2 {
		_ = r.Insert(tuple.New(int64(data[i]%8), int64(data[i+1]%8)))
	}
	return r
}

var (
	abScheme = schema.MustScheme("A", "B")
	bcScheme = schema.MustScheme("B", "C")
)

func TestUnionCommutativeAssociative(t *testing.T) {
	f := func(a, b, c []byte) bool {
		ra, rb, rc := relGen(a, abScheme), relGen(b, abScheme), relGen(c, abScheme)
		ab, _ := Union(ra, rb)
		ba, _ := Union(rb, ra)
		if !ab.Equal(ba) {
			return false
		}
		abc1, _ := Union(ab, rc)
		bc, _ := Union(rb, rc)
		abc2, _ := Union(ra, bc)
		return abc1.Equal(abc2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffLaws(t *testing.T) {
	f := func(a, b []byte) bool {
		ra, rb := relGen(a, abScheme), relGen(b, abScheme)
		// (a − b) ∩ b = ∅
		d, _ := Diff(ra, rb)
		i, _ := Intersect(d, rb)
		if i.Len() != 0 {
			return false
		}
		// (a − b) ∪ (a ∩ b) = a
		ab, _ := Intersect(ra, rb)
		u, _ := Union(d, ab)
		return u.Equal(ra)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestJoinDistributesOverUnion pins the §5.3 foundation:
// (a ∪ b) ⋈ c = (a ⋈ c) ∪ (b ⋈ c).
func TestJoinDistributesOverUnion(t *testing.T) {
	f := func(a, b, c []byte) bool {
		ra, rb := relGen(a, abScheme), relGen(b, abScheme)
		rc := relGen(c, bcScheme)
		u, _ := Union(ra, rb)
		left, _ := NaturalJoin(u, rc)
		ja, _ := NaturalJoin(ra, rc)
		jb, _ := NaturalJoin(rb, rc)
		right, _ := Union(ja, jb)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestJoinDistributesOverDifference pins the delete-side §5.3
// foundation: (a − d) ⋈ c = (a ⋈ c) − (d ⋈ c), for d ⊆ a.
func TestJoinDistributesOverDifference(t *testing.T) {
	f := func(a, dSel []byte) bool {
		ra := relGen(a, abScheme)
		// Build d ⊆ a by selecting a pseudo-random subset.
		d := New(abScheme)
		i := 0
		ra.Each(func(tu tuple.Tuple) {
			if len(dSel) > 0 && dSel[i%len(dSel)]%2 == 0 {
				_ = d.Insert(tu)
			}
			i++
		})
		rc := relGen(a, bcScheme) // any instance works
		diff, _ := Diff(ra, d)
		left, _ := NaturalJoin(diff, rc)
		ja, _ := NaturalJoin(ra, rc)
		jd, _ := NaturalJoin(d, rc)
		right, _ := Diff(ja, jd)
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountedProjectMatchesDerivationCount: π with counters counts
// exactly the derivations of each output tuple.
func TestCountedProjectMatchesDerivationCount(t *testing.T) {
	f := func(a []byte) bool {
		ra := relGen(a, abScheme)
		pc, err := ProjectCounted(FromRelation(ra), []schema.Attribute{"B"})
		if err != nil {
			return false
		}
		// Oracle: count manually.
		counts := make(map[int64]int64)
		ra.Each(func(tu tuple.Tuple) { counts[tu[1]]++ })
		if int64(len(counts)) != int64(pc.Len()) {
			return false
		}
		for v, n := range counts {
			if pc.Count(tuple.New(v)) != n {
				return false
			}
		}
		return pc.Total() == int64(ra.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountedMergeSubtractInverse: (c ⊎ d) ⊖ d = c.
func TestCountedMergeSubtractInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		c := FromRelation(relGen(a, abScheme))
		d := FromRelation(relGen(b, abScheme))
		orig := c.Clone()
		if err := c.Merge(d); err != nil {
			return false
		}
		if err := c.Subtract(d); err != nil {
			return false
		}
		return c.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIndexMatchesScan: probing an index returns exactly the matching
// tuples, under arbitrary add/remove interleavings.
func TestIndexMatchesScan(t *testing.T) {
	f := func(ops []byte) bool {
		r := New(abScheme)
		ix := NewIndex(1)
		for i := 0; i+2 < len(ops); i += 3 {
			tu := tuple.New(int64(ops[i]%8), int64(ops[i+1]%8))
			if ops[i+2]%3 == 0 && r.Has(tu) {
				r.Delete(tu)
				ix.Remove(tu)
			} else if !r.Has(tu) {
				_ = r.Insert(tu)
				ix.Add(tu.Clone())
			}
		}
		for v := int64(0); v < 8; v++ {
			want := Select(r, func(tu tuple.Tuple) bool { return tu[1] == v })
			got := ix.Probe(v)
			if len(got) != want.Len() {
				return false
			}
			for _, tu := range got {
				if !want.Has(tu) {
					return false
				}
			}
		}
		return ix.Len() == r.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
