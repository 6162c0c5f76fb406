package relation

import (
	"fmt"
	"sort"

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
// dead-row marker and Each can walk the arena linearly.
type Counted struct {
	scheme *schema.Scheme
	a      *rowArena
	counts column // by handle; 0 marks a dead (removed) row
	total  int64  // sum of all counts, maintained incrementally
}

// CountedTuple pairs a tuple with its multiplicity, for iteration in
// deterministic order.
type CountedTuple struct {
	Tuple tuple.Tuple
	Count int64
}

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
	r.Each(func(t tuple.Tuple) {
		c.a.addNew(t, nil)
		c.counts.push(1, 0)
	})
	c.total = int64(r.Len())
	return c
}

// Scheme returns the relation's scheme.
func (c *Counted) Scheme() *schema.Scheme { return c.scheme }

// Len returns the number of distinct tuples.
func (c *Counted) Len() int { return c.a.len() }

// Total returns the sum of all multiplicities.
func (c *Counted) Total() int64 { return c.total }

// Count returns the multiplicity of t (zero when absent). Safe for
// concurrent readers of a published view.
func (c *Counted) Count(t tuple.Tuple) int64 {
	if len(t) != c.scheme.Arity() {
		return 0
	}
	h, _, ok := c.a.find(t, nil)
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
	h, hash, ok := c.a.find(t, nil)
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
		if c.a.tooManyDead() {
			// Carry the counts over to the compacted arena's handles.
			var counts column
			c.a = c.a.clone(func(old int32) { counts.push(c.counts.get(old), 0) })
			c.counts = counts
		}
	case ok:
		c.counts.set(h, next, c.a.gen)
	default:
		c.a.add(hash, t, nil)
		c.counts.push(next, c.a.gen)
	}
	c.total += n
	return nil
}

// bump adds n (> 0) to t's counter without the error path, for
// operators that only ever accumulate positive counts.
func (c *Counted) bump(t tuple.Tuple, n int64) {
	if h, hash, ok := c.a.find(t, nil); ok {
		*c.counts.slot(h, c.a.gen) += n
	} else {
		c.a.add(hash, t, nil)
		c.counts.push(n, c.a.gen)
	}
	c.total += n
}

// Each calls f for every (tuple, count) pair in unspecified order. The
// walk is linear over the arena; dead rows are skipped by their zero
// count.
func (c *Counted) Each(f func(tuple.Tuple, int64)) {
	c.eachHandle(func(_ int32, t tuple.Tuple, n int64) { f(t, n) })
}

// eachHandle is Each with the row's handle.
func (c *Counted) eachHandle(f func(h int32, t tuple.Tuple, n int64)) {
	var leaf *columnLeaf
	c.a.rows.each(func(h int32, t tuple.Tuple) {
		if h&(spineFan-1) == 0 {
			leaf = c.counts.leaves.get(h >> spineBits)
		}
		if n := leaf.vals[h&(spineFan-1)]; n != 0 {
			f(h, t, n)
		}
	})
}

// Tuples returns all counted tuples sorted lexicographically.
func (c *Counted) Tuples() []CountedTuple {
	out := make([]CountedTuple, 0, c.a.len())
	c.Each(func(t tuple.Tuple, n int64) {
		out = append(out, CountedTuple{Tuple: t, Count: n})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Less(out[j].Tuple) })
	return out
}

// Clone returns an independent copy in O(1): rows, trie and counts are
// shared, and either side copies only the paths it later writes.
func (c *Counted) Clone() *Counted {
	return &Counted{scheme: c.scheme, a: c.a.cloneShared(), counts: c.counts, total: c.total}
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

// ToRelation collapses multiplicities, returning the underlying set.
func (c *Counted) ToRelation() *Relation {
	out := New(c.scheme)
	c.Each(func(t tuple.Tuple, _ int64) { out.put(t) })
	return out
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

// Merge adds every counted tuple of o into c (the ⊎ operator). It
// mutates c and returns an error on scheme mismatch.
func (c *Counted) Merge(o *Counted) error {
	if err := sameScheme("counted merge", c.scheme, o.scheme); err != nil {
		return err
	}
	// Counts are positive on both sides, so no counter can go negative.
	o.Each(c.bump)
	return nil
}

// Subtract removes every counted tuple of o from c (the ⊖ operator),
// erroring if any counter would go negative.
func (c *Counted) Subtract(o *Counted) error {
	if err := sameScheme("counted subtract", c.scheme, o.scheme); err != nil {
		return err
	}
	var firstErr error
	o.Each(func(t tuple.Tuple, n int64) {
		if firstErr != nil {
			return
		}
		firstErr = c.Add(t, -n)
	})
	return firstErr
}

// SelectCounted returns σ_pred(c); selection leaves counters untouched
// (§5.2: "the select operation is not affected").
func SelectCounted(c *Counted, pred func(tuple.Tuple) bool) *Counted {
	out := NewCountedCap(c.scheme, c.Len())
	c.Each(func(t tuple.Tuple, n int64) {
		if pred(t) {
			out.bump(t, n)
		}
	})
	return out
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

// CrossCounted returns the cross product with counters multiplied
// (the §5.2 redefinition of join specialized to an empty join set).
func CrossCounted(a, b *Counted) (*Counted, error) {
	cs, err := a.scheme.Concat(b.scheme)
	if err != nil {
		return nil, err
	}
	out := NewCounted(cs)
	buf := make(tuple.Tuple, 0, cs.Arity())
	a.Each(func(ta tuple.Tuple, na int64) {
		b.Each(func(tb tuple.Tuple, nb int64) {
			buf = append(append(buf[:0], ta...), tb...)
			out.bump(buf, na*nb)
		})
	})
	return out, nil
}

// NaturalJoinCounted returns a ⋈ b under the §5.2 redefinition: the
// counter of a joined tuple is the product u(N) * v(N) of the operand
// counters.
func NaturalJoinCounted(a, b *Counted) (*Counted, error) {
	p, err := planNaturalJoin(a.scheme, b.scheme)
	if err != nil {
		return nil, err
	}
	out := NewCountedCap(p.out, a.Len())
	ix := newHandleIndex(b.a.len())
	var kb []byte
	pbuf := make(tuple.Tuple, len(p.rightPos))
	b.eachHandle(func(h int32, t tuple.Tuple, _ int64) {
		for i, pos := range p.rightPos {
			pbuf[i] = t[pos]
		}
		kb = tuple.AppendKey(kb[:0], pbuf)
		ix.add(kb, int64(h))
	})
	lbuf := make(tuple.Tuple, len(p.leftPos))
	obuf := make(tuple.Tuple, 0, p.out.Arity())
	a.Each(func(ta tuple.Tuple, na int64) {
		for i, pos := range p.leftPos {
			lbuf[i] = ta[pos]
		}
		kb = tuple.AppendKey(kb[:0], lbuf)
		ix.eachRef(kb, func(ref int64) {
			h := int32(ref)
			obuf = p.appendCombine(obuf[:0], ta, b.a.row(h))
			out.bump(obuf, na*b.counts.get(h))
		})
	})
	return out, nil
}
