// Package relation implements the three relation representations used
// by the mview engine and the relational operators over them:
//
//   - Relation: a set of tuples (the paper's model for base relations),
//     internally split into hash shards (see shard.go).
//   - Counted: a relation whose tuples carry the multiplicity counter
//     introduced in §5.2 to make projection distribute over difference.
//     Materialized views are Counted relations.
//   - Tagged: a relation whose tuples carry the old/insert/delete tags
//     of §5.3, used while differentially re-evaluating join views.
//
// All three store their tuples in flat row arenas (arena.go): values
// live back-to-back in pages of []int64 rows (rows.go), a persistent
// hash trie (trie.go) indexes them by int32 handle, and per-tuple
// payloads (counts, tags) are dense side columns indexed by handle. The
// representation is invisible behind the package-level ops.
//
// All operators are pure: they allocate fresh results and never mutate
// their operands, except for the explicitly mutating methods (Insert,
// Delete, Add, Apply).
package relation

import (
	"fmt"
	"sort"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// Relation is a set of tuples over a fixed scheme, stored as one or
// more hash-sharded row arenas keyed on one attribute. Clone shares
// the shard arenas copy-on-write; concurrent readers of a published
// relation are safe as long as all mutation happens on clones under
// the engine's write lock (the snapshot discipline in internal/db).
type Relation struct {
	scheme *schema.Scheme
	key    int // shard-key attribute position
	parts  []*rowArena
	shared []bool // parts[i] is also referenced by a clone or snapshot
	n      int
}

// New returns an empty unsharded relation over the given scheme.
func New(s *schema.Scheme) *Relation {
	return &Relation{
		scheme: s,
		parts:  []*rowArena{newRowArena(s.Arity())},
		shared: make([]bool, 1),
	}
}

// NewCap returns an empty unsharded relation presized for n tuples.
func NewCap(s *schema.Scheme, n int) *Relation {
	return &Relation{
		scheme: s,
		parts:  []*rowArena{newRowArenaCap(s.Arity(), n)},
		shared: make([]bool, 1),
	}
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
func (r *Relation) Len() int { return r.n }

// Has reports whether t is in the relation. Safe for concurrent
// readers of a published relation.
func (r *Relation) Has(t tuple.Tuple) bool {
	if len(t) != r.scheme.Arity() {
		return false
	}
	_, _, ok := r.parts[r.part(t)].find(t, nil)
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

// Delete removes t; removing an absent tuple is a no-op.
func (r *Relation) Delete(t tuple.Tuple) {
	if len(t) != r.scheme.Arity() {
		return
	}
	p := r.part(t)
	h, hash, ok := r.parts[p].find(t, nil)
	if !ok {
		return
	}
	a := r.writable(p)
	a.remove(hash, h)
	r.n--
	if a.tooManyDead() {
		r.parts[p] = a.clone(nil)
	}
}

// Each calls f for every tuple in unspecified order. The callback must
// not mutate the tuple; retaining it is safe (arena rows are immutable
// once stored).
func (r *Relation) Each(f func(tuple.Tuple)) {
	for i := range r.parts {
		r.EachShard(i, f)
	}
}

// EachShard calls f for every tuple of shard i, in unspecified order.
func (r *Relation) EachShard(i int, f func(tuple.Tuple)) {
	r.parts[i].each(func(_ int32, t tuple.Tuple) { f(t) })
}

// Tuples returns all tuples sorted lexicographically, for deterministic
// iteration and display.
func (r *Relation) Tuples() []tuple.Tuple {
	out := make([]tuple.Tuple, 0, r.n)
	r.Each(func(t tuple.Tuple) { out = append(out, t) })
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns a copy sharing all shard arenas copy-on-write: the
// copy costs O(#shards), and a subsequent mutation of either side
// copies, per shard it touches, an arena header plus the trie paths it
// writes. Callers must serialize Clone with other mutations of r (it
// marks r's parts shared).
func (r *Relation) Clone() *Relation {
	out := &Relation{
		scheme: r.scheme,
		key:    r.key,
		parts:  append([]*rowArena(nil), r.parts...),
		shared: make([]bool, len(r.parts)),
		n:      r.n,
	}
	for i := range r.parts {
		r.shared[i] = true
		out.shared[i] = true
	}
	return out
}

// Equal reports whether two relations have equal schemes and tuple
// sets; shard layout does not participate.
func (r *Relation) Equal(o *Relation) bool {
	if !r.scheme.Equal(o.scheme) || r.n != o.n {
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
	// Hash join: build a handle index on r (refs pack shard and
	// handle), probe with l's rows.
	ix := newHandleIndex(r.n)
	var kb []byte
	pbuf := make(tuple.Tuple, len(p.rightPos))
	for pi, a := range r.parts {
		a.each(func(h int32, b tuple.Tuple) {
			for i, pos := range p.rightPos {
				pbuf[i] = b[pos]
			}
			kb = tuple.AppendKey(kb[:0], pbuf)
			ix.add(kb, int64(pi)<<32|int64(h))
		})
	}
	lbuf := make(tuple.Tuple, len(p.leftPos))
	obuf := make(tuple.Tuple, 0, p.out.Arity())
	l.Each(func(a tuple.Tuple) {
		for i, pos := range p.leftPos {
			lbuf[i] = a[pos]
		}
		kb = tuple.AppendKey(kb[:0], lbuf)
		ix.eachRef(kb, func(ref int64) {
			b := r.parts[ref>>32].row(int32(ref))
			obuf = p.appendCombine(obuf[:0], a, b)
			out.put(obuf)
		})
	})
	return out, nil
}
