// Package relation implements the two relation representations used by
// the mview engine and the relational operators over them:
//
//   - Relation: a set of tuples (the paper's model for base relations).
//   - Counted: a relation whose tuples carry the multiplicity counter
//     introduced in §5.2 to make projection distribute over difference.
//     Materialized views are Counted relations.
//
// Both store their tuples in flat row arenas (arena.go): values live
// back-to-back in pages of []int64 rows (rows.go), a persistent hash
// trie (trie.go) indexes them by int32 handle, and Counted's counts are
// a dense side column indexed by handle. The representation is
// invisible behind the package-level ops.
//
// All operators are pure: they allocate fresh results and never mutate
// their operands, except for the explicitly mutating methods (Insert,
// Delete, Add, Apply).
package relation

import (
	"fmt"
	"slices"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// Relation is a set of tuples over a fixed scheme, stored in one row
// arena. Clone shares the arena copy-on-write; concurrent readers of a
// published relation are safe as long as all mutation happens on
// clones under the engine's write lock (the snapshot discipline in
// internal/db).
type Relation struct {
	scheme *schema.Scheme
	a      *rowArena
}

// New returns an empty relation over the given scheme.
func New(s *schema.Scheme) *Relation {
	return &Relation{scheme: s, a: newRowArena(s.Arity())}
}

// NewCap returns an empty relation presized for n tuples.
func NewCap(s *schema.Scheme, n int) *Relation {
	return &Relation{scheme: s, a: newRowArenaCap(s.Arity(), n)}
}

// FromTuples builds a relation from the given tuples, ignoring
// duplicates. It returns an error if any tuple's arity does not match
// the scheme.
func FromTuples(s *schema.Scheme, ts ...tuple.Tuple) (*Relation, error) {
	r := New(s)
	for _, t := range ts {
		if err := r.Insert(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples for statically known data; it panics on
// arity mismatch.
func MustFromTuples(s *schema.Scheme, ts ...tuple.Tuple) *Relation {
	r, err := FromTuples(s, ts...)
	if err != nil {
		panic(err)
	}
	return r
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() *schema.Scheme { return r.scheme }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.a.len() }

// Has reports whether t is in the relation. Safe for concurrent
// readers of a published relation.
func (r *Relation) Has(t tuple.Tuple) bool {
	if len(t) != r.scheme.Arity() {
		return false
	}
	_, _, ok := r.a.find(t)
	return ok
}

func (r *Relation) checkArity(t tuple.Tuple) error {
	if len(t) != r.scheme.Arity() {
		return fmt.Errorf("relation: tuple %v has arity %d, scheme %s has arity %d",
			t, len(t), r.scheme, r.scheme.Arity())
	}
	return nil
}

// Insert adds t to the relation. Inserting a present tuple is a no-op
// (set semantics). It returns an error on arity mismatch.
func (r *Relation) Insert(t tuple.Tuple) error {
	if err := r.checkArity(t); err != nil {
		return err
	}
	r.put(t)
	return nil
}

// put inserts t without arity checking; the arena copies t's values,
// so callers may pass scratch tuples. Present tuples are left
// untouched (set semantics).
func (r *Relation) put(t tuple.Tuple) {
	if _, hash, ok := r.a.find(t); !ok {
		r.a.add(hash, t)
	}
}

// Delete removes t; removing an absent tuple is a no-op.
func (r *Relation) Delete(t tuple.Tuple) {
	if len(t) != r.scheme.Arity() {
		return
	}
	h, hash, ok := r.a.find(t)
	if !ok {
		return
	}
	r.a.remove(hash, h)
	if r.a.tooManyDead() {
		r.a = r.a.clone(nil)
	}
}

// Each calls f for every tuple in unspecified order. The callback must
// not mutate the tuple; retaining it is safe (arena rows are immutable
// once stored).
func (r *Relation) Each(f func(tuple.Tuple)) {
	r.a.each(func(_ int32, t tuple.Tuple) { f(t) })
}

// Tuples returns all tuples sorted lexicographically, for deterministic
// iteration and display.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.Len())
	r.Each(func(t tuple.Tuple) { out = append(out, t) })
	slices.SortFunc(out, tuple.Compare)
	return out
}

// Clone returns a copy in O(1), sharing the arena copy-on-write: a
// subsequent mutation of either side copies only the trie paths and
// the page it writes. Callers must serialize Clone with other
// mutations of r (it restamps r's arena generation).
func (r *Relation) Clone() *Relation {
	return &Relation{scheme: r.scheme, a: r.a.cloneShared()}
}

// Equal reports whether two relations have equal schemes and tuple
// sets.
func (r *Relation) Equal(o *Relation) bool {
	if !r.scheme.Equal(o.scheme) || r.Len() != o.Len() {
		return false
	}
	eq := true
	r.Each(func(t tuple.Tuple) { eq = eq && o.Has(t) })
	return eq
}

// String renders the relation as "{(1, 2), (3, 4)}" in sorted order.
func (r *Relation) String() string {
	ts := r.Tuples()
	s := "{"
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s + "}"
}

func sameScheme(op string, a, b *schema.Scheme) error {
	if !a.Equal(b) {
		return fmt.Errorf("relation: %s over mismatched schemes %s and %s", op, a, b)
	}
	return nil
}

// Union returns r ∪ o. The schemes must be equal.
func Union(r, o *Relation) (*Relation, error) {
	if err := sameScheme("union", r.scheme, o.scheme); err != nil {
		return nil, err
	}
	out := r.Clone()
	o.Each(out.put)
	return out, nil
}

// Diff returns r − o. The schemes must be equal.
func Diff(r, o *Relation) (*Relation, error) {
	if err := sameScheme("difference", r.scheme, o.scheme); err != nil {
		return nil, err
	}
	out := New(r.scheme)
	r.Each(func(t tuple.Tuple) {
		if !o.Has(t) {
			out.put(t)
		}
	})
	return out, nil
}

// Intersect returns r ∩ o. The schemes must be equal.
func Intersect(r, o *Relation) (*Relation, error) {
	if err := sameScheme("intersection", r.scheme, o.scheme); err != nil {
		return nil, err
	}
	out := New(r.scheme)
	r.Each(func(t tuple.Tuple) {
		if o.Has(t) {
			out.put(t)
		}
	})
	return out, nil
}

// Select returns σ_pred(r).
func Select(r *Relation, pred func(tuple.Tuple) bool) *Relation {
	out := New(r.scheme)
	r.Each(func(t tuple.Tuple) {
		if pred(t) {
			out.put(t)
		}
	})
	return out
}

// Project returns the set projection π_attrs(r) (duplicates collapse).
// Use ProjectCounted when multiplicities matter (§5.2).
func Project(r *Relation, attrs []schema.Attribute) (*Relation, error) {
	pos, err := r.scheme.Positions(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := r.scheme.Project(attrs)
	if err != nil {
		return nil, err
	}
	out := New(ps)
	buf := make(tuple.Tuple, len(pos))
	r.Each(func(t tuple.Tuple) {
		for i, p := range pos {
			buf[i] = t[p]
		}
		out.put(buf)
	})
	return out, nil
}

// Cross returns the cross product r × o. The schemes must be disjoint;
// qualify them first if they are not (schema.Scheme.Qualify).
func Cross(r, o *Relation) (*Relation, error) {
	cs, err := r.scheme.Concat(o.scheme)
	if err != nil {
		return nil, err
	}
	out := New(cs)
	buf := make(tuple.Tuple, 0, cs.Arity())
	r.Each(func(a tuple.Tuple) {
		o.Each(func(b tuple.Tuple) {
			buf = append(append(buf[:0], a...), b...)
			out.put(buf)
		})
	})
	return out, nil
}

// joinPlan precomputes the shapes of a natural join between two
// schemes: positions of the shared attributes on both sides, positions
// of the right-side attributes that are not shared, and the output
// scheme (left attributes followed by right-only attributes).
type joinPlan struct {
	leftPos, rightPos []int // shared attributes, aligned
	rightRest         []int // right positions excluded from output
	out               *schema.Scheme
}

func planNaturalJoin(l, r *schema.Scheme) (*joinPlan, error) {
	common := l.Common(r)
	p := &joinPlan{}
	for _, a := range common {
		lp, _ := l.Pos(a)
		rp, _ := r.Pos(a)
		p.leftPos = append(p.leftPos, lp)
		p.rightPos = append(p.rightPos, rp)
	}
	attrs := append([]schema.Attribute{}, l.Attributes()...)
	for i, a := range r.Attributes() {
		if !l.Has(a) {
			attrs = append(attrs, a)
			p.rightRest = append(p.rightRest, i)
		}
	}
	out, err := schema.NewScheme(attrs...)
	if err != nil {
		return nil, fmt.Errorf("relation: natural join scheme: %w", err)
	}
	p.out = out
	return p, nil
}

// appendCombine appends the join of a and b (a followed by b's
// non-shared columns) to dst and returns it, so callers can reuse one
// scratch tuple across rows.
func (p *joinPlan) appendCombine(dst, a, b tuple.Tuple) tuple.Tuple {
	dst = append(dst, a...)
	for _, i := range p.rightRest {
		dst = append(dst, b[i])
	}
	return dst
}

// NaturalJoin returns l ⋈ r: tuples agreeing on all shared attributes,
// with shared columns emitted once. With no shared attributes it
// degenerates to the cross product, per the standard definition.
func NaturalJoin(l, r *Relation) (*Relation, error) {
	p, err := planNaturalJoin(l.scheme, r.scheme)
	if err != nil {
		return nil, err
	}
	out := New(p.out)
	// Hash join: build a handle index on r, probe with l's rows.
	ix := newHandleIndex(r.Len())
	var kb []byte
	pbuf := make(tuple.Tuple, len(p.rightPos))
	r.a.each(func(h int32, b tuple.Tuple) {
		for i, pos := range p.rightPos {
			pbuf[i] = b[pos]
		}
		kb = tuple.AppendKey(kb[:0], pbuf)
		ix.add(kb, h)
	})
	lbuf := make(tuple.Tuple, len(p.leftPos))
	obuf := make(tuple.Tuple, 0, p.out.Arity())
	l.Each(func(a tuple.Tuple) {
		for i, pos := range p.leftPos {
			lbuf[i] = a[pos]
		}
		kb = tuple.AppendKey(kb[:0], lbuf)
		ix.eachRef(kb, func(h int32) {
			b := r.a.row(h)
			obuf = p.appendCombine(obuf[:0], a, b)
			out.put(obuf)
		})
	})
	return out, nil
}
