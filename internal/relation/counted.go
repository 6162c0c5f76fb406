package relation

import (
	"fmt"
	"slices"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// Counted is a relation whose tuples carry the multiplicity counter of
// §5.2. The counter records how many operand tuples contribute to each
// view tuple, which restores the distributive property of projection
// over difference: π(r1 − r2) = π(r1) ⊖ π(r2).
//
// Base relations have an implicit counter of one on every tuple (the
// paper: "for base relations, this attribute need not be explicitly
// stored since its value in every tuple is always one").
//
// Storage is one flat row arena plus a paged counts column indexed by
// handle (column.go), written under the arena's generation. Live
// entries always have a positive count, so a zero count doubles as the
// free-slot marker and Each can walk the arena linearly.
type Counted struct {
	scheme *schema.Scheme
	a      rowArena
	counts column // by handle; 0 marks a free slot
}

// CountedTuple pairs a tuple with its multiplicity, for iteration in
// deterministic order, or with a signed change of it in a view delta.
type CountedTuple struct {
	Tuple tuple.Tuple
	Count int64
}

// ByTuple orders counted tuples by tuple (tuple.Compare), the order of
// Tuples and of a view delta's run.
func ByTuple(a, b CountedTuple) int { return tuple.Compare(a.Tuple, b.Tuple) }

// NewCounted returns an empty counted relation over the given scheme.
func NewCounted(s *schema.Scheme) *Counted {
	return &Counted{scheme: s, a: newRowArena(s.Arity())}
}

// NewCountedCap returns an empty counted relation presized for n
// distinct tuples, so producers with a known (or bounding) output size
// skip the incremental growth of the row storage.
func NewCountedCap(s *schema.Scheme, n int) *Counted {
	return &Counted{scheme: s, a: newRowArenaCap(s.Arity(), n)}
}

// FromRelation lifts a set relation to a counted relation with every
// count equal to one.
func FromRelation(r *Relation) *Counted {
	c := NewCountedCap(r.scheme, r.Len())
	r.Each(func(t tuple.Tuple) { c.counts.set(c.a.addNew(t), 1, c.a.gen) })
	return c
}

// Scheme returns the relation's scheme.
func (c *Counted) Scheme() *schema.Scheme { return c.scheme }

// Len returns the number of distinct tuples.
func (c *Counted) Len() int { return c.a.len() }

// Count returns the multiplicity of t (zero when absent). Safe for
// concurrent readers of a published view.
func (c *Counted) Count(t tuple.Tuple) int64 {
	if len(t) != c.scheme.Arity() {
		return 0
	}
	h, _, ok := c.a.find(t)
	if !ok {
		return 0
	}
	return c.counts.get(h)
}

// Has reports whether t has a positive count.
func (c *Counted) Has(t tuple.Tuple) bool { return c.Count(t) > 0 }

// Add adjusts t's counter by n (n may be negative). The tuple is
// removed when its counter reaches zero. It returns an error if the
// counter would become negative, which indicates an inconsistent
// maintenance sequence, or on arity mismatch.
func (c *Counted) Add(t tuple.Tuple, n int64) error {
	if len(t) != c.scheme.Arity() {
		return fmt.Errorf("relation: counted tuple %v has arity %d, scheme %s has arity %d",
			t, len(t), c.scheme, c.scheme.Arity())
	}
	if n == 0 {
		return nil
	}
	h, hash, ok := c.a.find(t)
	var cur int64
	if ok {
		cur = c.counts.get(h)
	}
	next := cur + n
	switch {
	case next < 0:
		return fmt.Errorf("relation: counter for %v would become negative (%d%+d)", t, cur, n)
	case next == 0:
		c.a.remove(hash, h)
		c.counts.set(h, 0, c.a.gen)
	case ok:
		c.counts.set(h, next, c.a.gen)
	default:
		c.counts.set(c.a.add(hash, t), next, c.a.gen)
	}
	return nil
}

// bump adds n (> 0) to t's counter without the error path, for
// ProjectCounted, which only ever accumulates positive counts.
func (c *Counted) bump(t tuple.Tuple, n int64) {
	if h, hash, ok := c.a.find(t); ok {
		*c.counts.slot(h, c.a.gen) += n
	} else {
		c.counts.set(c.a.add(hash, t), n, c.a.gen)
	}
}

// Each calls f for every (tuple, count) pair in unspecified order. The
// walk is linear over the arena; free slots are skipped by their zero
// count. A retained tuple stays valid until the next write to c
// (arena.go).
func (c *Counted) Each(f func(tuple.Tuple, int64)) {
	var leaf *columnLeaf
	c.a.rows.each(func(h int32, t tuple.Tuple) {
		if h&(spineFan-1) == 0 {
			leaf = c.counts.leaves.get(h >> spineBits)
		}
		if n := leaf.vals[h&(spineFan-1)]; n != 0 {
			f(t, n)
		}
	})
}

// Tuples returns all counted tuples sorted lexicographically.
func (c *Counted) Tuples() []CountedTuple {
	out := make([]CountedTuple, 0, c.a.len())
	c.Each(func(t tuple.Tuple, n int64) {
		out = append(out, CountedTuple{Tuple: t, Count: n})
	})
	slices.SortFunc(out, ByTuple)
	return out
}

// Clone returns an independent copy in O(1): rows, trie and counts are
// shared, and either side copies only the paths it later writes.
func (c *Counted) Clone() *Counted {
	return &Counted{scheme: c.scheme, a: c.a.cloneShared(), counts: c.counts}
}

// Equal reports whether two counted relations have equal schemes,
// tuples, and multiplicities. It is the correctness oracle used to
// compare differential maintenance against full re-evaluation.
func (c *Counted) Equal(o *Counted) bool {
	if !c.scheme.Equal(o.scheme) || c.a.len() != o.a.len() {
		return false
	}
	eq := true
	c.Each(func(t tuple.Tuple, n int64) { eq = eq && o.Count(t) == n })
	return eq
}

// String renders the relation as "{(1, 2)×3, (4, 5)×1}" in sorted
// order.
func (c *Counted) String() string {
	s := "{"
	for i, ct := range c.Tuples() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s×%d", ct.Tuple, ct.Count)
	}
	return s + "}"
}

// ProjectCounted returns π_attrs(c) under the §5.2 redefinition: the
// counter of an output tuple is the sum of the counters of the operand
// tuples that project onto it.
func ProjectCounted(c *Counted, attrs []schema.Attribute) (*Counted, error) {
	pos, err := c.scheme.Positions(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := c.scheme.Project(attrs)
	if err != nil {
		return nil, err
	}
	out := NewCounted(ps)
	buf := make(tuple.Tuple, len(pos))
	c.Each(func(t tuple.Tuple, n int64) {
		for i, p := range pos {
			buf[i] = t[p]
		}
		out.bump(buf, n)
	})
	return out, nil
}
