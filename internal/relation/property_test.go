package relation

// Algebraic property tests over randomly generated relations, using
// testing/quick: set laws, counter exactness, the §5.2 redefinitions,
// and indexes that match their relation. §5.3's distributivity of join
// over union and difference is checked end to end by diffeval's
// TestDifferentialMatchesFullReevaluation.

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

var abScheme = schema.MustScheme("A", "B")

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
		disjoint := true
		d.Each(func(tu tuple.Tuple) { disjoint = disjoint && !rb.Has(tu) })
		if !disjoint {
			return false
		}
		// (a − b) ∪ (a − (a − b)) = a
		ab, _ := Diff(ra, d)
		u, _ := Union(d, ab)
		return u.Equal(ra)
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
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCountedAddInverse: (c ⊎ d) ⊖ d = c, folding d's counters in
// with Add and out again with their negations.
func TestCountedAddInverse(t *testing.T) {
	f := func(a, b []byte) bool {
		c := FromRelation(relGen(a, abScheme))
		d := FromRelation(relGen(b, abScheme))
		orig := c.Clone()
		if err := addAll(c, d, 1); err != nil {
			return false
		}
		if err := addAll(c, d, -1); err != nil {
			return false
		}
		return c.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIndexMatchesScan: probing a relation's index returns exactly the
// matching tuples, under arbitrary insert/delete interleavings.
func TestIndexMatchesScan(t *testing.T) {
	f := func(ops []byte) bool {
		r := New(abScheme)
		if err := r.AddIndex(1); err != nil {
			return false
		}
		for i := 0; i+2 < len(ops); i += 3 {
			tu := tuple.New(int64(ops[i]%8), int64(ops[i+1]%8))
			if ops[i+2]%3 == 0 {
				r.Delete(tu)
			} else {
				_ = r.Insert(tu)
			}
		}
		return indexMatchesScan(r, r.Index(1)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
