// Package relation implements the two relation representations used by
// the mview engine:
//
//   - Relation: a set of tuples (the paper's model for base relations),
//     optionally carrying single-column indexes (index.go).
//   - Counted: a relation whose tuples carry the multiplicity counter
//     introduced in §5.2 to make projection distribute over difference.
//     Materialized views are Counted relations.
//
// Both store their tuples in flat row arenas (arena.go): values live
// back-to-back in pages of []int64 rows (rows.go), a persistent hash
// trie (trie.go) indexes them by int32 handle, and Counted's counts are
// a dense side column indexed by handle. A Relation's indexes are
// further tries over the same handles, so rows, trie, counts and indexes
// are one copy-on-write store that Clone shares in O(1).
//
// The few operators (Union, Diff, ProjectCounted) allocate fresh
// results.
package relation

import (
	"fmt"
	"slices"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// Relation is a set of tuples over a fixed scheme, stored in one row
// arena, with its single-column indexes. Clone shares the arena and the
// indexes copy-on-write; concurrent readers of a published relation are
// safe as long as all mutation happens on clones under the engine's
// write lock (the snapshot discipline in internal/db).
type Relation struct {
	scheme *schema.Scheme
	a      rowArena
	ixs    []Index // in the order AddIndex added them
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
		h := r.a.add(hash, t)
		for i := range r.ixs {
			r.ixs[i].insert(h, t)
		}
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
	for i := range r.ixs {
		r.ixs[i].remove(h, t)
	}
}

// Each calls f for every tuple in unspecified order. The callback must
// not mutate the tuple. A retained tuple stays valid until the next
// write to r (arena.go); keep a Clone of r, or copy the tuple, to hold
// it longer.
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

// Clone returns a copy in O(1) per index, sharing the arena and the
// indexes copy-on-write: a subsequent mutation of either side copies
// only the trie paths and the page it writes. Callers must serialize
// Clone with other mutations of r (it restamps r's arena generation).
func (r *Relation) Clone() *Relation {
	c := &Relation{scheme: r.scheme, a: r.a.cloneShared()}
	if len(r.ixs) > 0 {
		c.ixs = slices.Clone(r.ixs)
		for i := range c.ixs {
			c.ixs[i].r = c
		}
	}
	return c
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
