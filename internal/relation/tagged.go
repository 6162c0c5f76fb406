package relation

import (
	"fmt"
	"sort"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// Tagged is a relation whose tuples carry the old/insert/delete tags of
// §5.3. During differential re-evaluation the operands of each
// truth-table row are tagged relations, and tags propagate through the
// operators: joins combine tags by the paper's tag table (dropping
// "ignore" results), while select and project preserve them.
//
// Storage is one flat row arena plus a dense tags slice indexed by
// handle. Tagged has no removal operation, so the arena never holds
// dead rows and Each is a straight linear walk.
type Tagged struct {
	scheme *schema.Scheme
	a      *rowArena
	tags   []tuple.Tag
}

// TaggedTuple pairs a tuple with its tag for deterministic iteration.
type TaggedTuple struct {
	Tuple tuple.Tuple
	Tag   tuple.Tag
}

// NewTagged returns an empty tagged relation over the given scheme.
func NewTagged(s *schema.Scheme) *Tagged {
	return &Tagged{scheme: s, a: newRowArena(s.Arity())}
}

// NewTaggedCap returns an empty tagged relation presized for n tuples.
func NewTaggedCap(s *schema.Scheme, n int) *Tagged {
	return &Tagged{
		scheme: s,
		a:      newRowArenaCap(s.Arity(), n),
		tags:   make([]tuple.Tag, 0, n),
	}
}

// TagRelation lifts a set relation to a tagged relation with every
// tuple carrying the given tag.
func TagRelation(r *Relation, tag tuple.Tag) *Tagged {
	g := NewTagged(r.scheme)
	g.liftFrom(r, tag)
	return g
}

// TagRelationAs lifts a set relation to a tagged relation over the
// given scheme (same arity, possibly different attribute names — the
// usual case is qualifying base attributes with an operand alias),
// with every tuple carrying the given tag.
func TagRelationAs(r *Relation, s *schema.Scheme, tag tuple.Tag) (*Tagged, error) {
	if s.Arity() != r.scheme.Arity() {
		return nil, fmt.Errorf("relation: cannot rebind %s as %s: arity mismatch", r.scheme, s)
	}
	g := NewTagged(s)
	g.liftFrom(r, tag)
	return g, nil
}

// MergeRelation adds every tuple of r tagged tag. A tuple already
// present has its tag overwritten.
func (g *Tagged) MergeRelation(r *Relation, tag tuple.Tag) error {
	if r.Scheme().Arity() != g.scheme.Arity() {
		return fmt.Errorf("relation: cannot merge %s into tagged %s: arity mismatch", r.Scheme(), g.scheme)
	}
	r.Each(func(t tuple.Tuple) { g.set(t, nil, tag) })
	return nil
}

func (g *Tagged) liftFrom(r *Relation, tag tuple.Tag) {
	g.a = newRowArenaCap(g.scheme.Arity(), r.Len())
	g.tags = make([]tuple.Tag, 0, r.Len())
	r.Each(func(t tuple.Tuple) {
		g.a.addNew(t, nil)
		g.tags = append(g.tags, tag)
	})
}

// Scheme returns the relation's scheme.
func (g *Tagged) Scheme() *schema.Scheme { return g.scheme }

// Len returns the number of tuples.
func (g *Tagged) Len() int { return g.a.len() }

// Set records t with the given tag, replacing any previous tag.
func (g *Tagged) Set(t tuple.Tuple, tag tuple.Tag) error {
	if len(t) != g.scheme.Arity() {
		return fmt.Errorf("relation: tagged tuple %v has arity %d, scheme %s has arity %d",
			t, len(t), g.scheme, g.scheme.Arity())
	}
	g.set(t, nil, tag)
	return nil
}

// set records the concatenation of p and q with the given tag.
func (g *Tagged) set(p, q tuple.Tuple, tag tuple.Tag) {
	h, hash, ok := g.a.find(p, q)
	if ok {
		g.tags[h] = tag
		return
	}
	g.a.add(hash, p, q)
	g.tags = append(g.tags, tag)
}

// Get returns t's tag and whether t is present. Safe for concurrent
// readers.
func (g *Tagged) Get(t tuple.Tuple) (tuple.Tag, bool) {
	if len(t) != g.scheme.Arity() {
		return 0, false
	}
	h, _, ok := g.a.find(t, nil)
	if !ok {
		return 0, false
	}
	return g.tags[h], true
}

// Each calls f for every (tuple, tag) pair in unspecified order (a
// linear arena walk — Tagged never has dead rows).
func (g *Tagged) Each(f func(tuple.Tuple, tuple.Tag)) {
	g.a.rows.each(func(h int32, t tuple.Tuple) { f(t, g.tags[h]) })
}

// Tuples returns all tagged tuples sorted lexicographically.
func (g *Tagged) Tuples() []TaggedTuple {
	out := make([]TaggedTuple, 0, g.a.len())
	g.Each(func(t tuple.Tuple, tag tuple.Tag) {
		out = append(out, TaggedTuple{Tuple: t, Tag: tag})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple.Less(out[j].Tuple) })
	return out
}

// Clone returns an independent copy (handle-preserving; trie and row
// storage shared until either side writes, tags copied — tagged
// relations are delta-sized intermediates).
func (g *Tagged) Clone() *Tagged {
	return &Tagged{
		scheme: g.scheme,
		a:      g.a.cloneShared(),
		tags:   append([]tuple.Tag(nil), g.tags...),
	}
}

// Merge adds every tuple of o into g. A tuple present in both must
// carry the same tag; differential rows are disjoint regions of the
// product space, so a clash indicates a maintenance bug.
func (g *Tagged) Merge(o *Tagged) error {
	if err := sameScheme("tagged merge", g.scheme, o.scheme); err != nil {
		return err
	}
	var firstErr error
	o.Each(func(t tuple.Tuple, tag tuple.Tag) {
		if firstErr != nil {
			return
		}
		h, hash, ok := g.a.find(t, nil)
		if !ok {
			g.a.add(hash, t, nil)
			g.tags = append(g.tags, tag)
		} else if g.tags[h] != tag {
			firstErr = fmt.Errorf("relation: tuple %v tagged both %v and %v", t, g.tags[h], tag)
		}
	})
	return firstErr
}

// String renders the relation as "{(1, 2):insert, …}" in sorted order.
func (g *Tagged) String() string {
	s := "{"
	for i, tt := range g.Tuples() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%s", tt.Tuple, tt.Tag)
	}
	return s + "}"
}

// SelectTagged returns σ_pred(g); per §5.3's unary tag table, the tag
// of every surviving tuple is preserved.
func SelectTagged(g *Tagged, pred func(tuple.Tuple) bool) *Tagged {
	out := NewTaggedCap(g.scheme, g.a.len())
	g.Each(func(t tuple.Tuple, tag tuple.Tag) {
		if pred(t) {
			out.a.addNew(t, nil)
			out.tags = append(out.tags, tag)
		}
	})
	return out
}

// CrossTagged returns the tagged cross product a × b. Tags combine by
// the paper's table; result tuples tagged "ignore" are discarded ("they
// do not emerge from the join").
func CrossTagged(a, b *Tagged) (*Tagged, error) {
	cs, err := a.scheme.Concat(b.scheme)
	if err != nil {
		return nil, err
	}
	out := NewTagged(cs)
	a.Each(func(ta tuple.Tuple, ga tuple.Tag) {
		b.Each(func(tb tuple.Tuple, gb tuple.Tag) {
			tag := tuple.JoinTags(ga, gb)
			if tag == tuple.TagIgnore {
				return
			}
			out.set(ta, tb, tag)
		})
	})
	return out, nil
}

// NaturalJoinTagged returns a ⋈ b with tag propagation, discarding
// "ignore" results.
func NaturalJoinTagged(a, b *Tagged) (*Tagged, error) {
	p, err := planNaturalJoin(a.scheme, b.scheme)
	if err != nil {
		return nil, err
	}
	out := NewTagged(p.out)
	ix := newHandleIndex(b.a.len())
	var kb []byte
	pbuf := make(tuple.Tuple, len(p.rightPos))
	b.a.rows.each(func(h int32, t tuple.Tuple) {
		for i, pos := range p.rightPos {
			pbuf[i] = t[pos]
		}
		kb = tuple.AppendKey(kb[:0], pbuf)
		ix.add(kb, h)
	})
	lbuf := make(tuple.Tuple, len(p.leftPos))
	obuf := make(tuple.Tuple, 0, p.out.Arity())
	a.Each(func(ta tuple.Tuple, ga tuple.Tag) {
		for i, pos := range p.leftPos {
			lbuf[i] = ta[pos]
		}
		kb = tuple.AppendKey(kb[:0], lbuf)
		ix.eachRef(kb, func(h int32) {
			tag := tuple.JoinTags(ga, b.tags[h])
			if tag == tuple.TagIgnore {
				return
			}
			obuf = p.appendCombine(obuf[:0], ta, b.a.row(h))
			out.Set(obuf, tag)
		})
	})
	return out, nil
}

// JoinOn returns the equi-join of a and b on the given aligned
// position lists (a's lpos values must equal b's rpos values), with
// result tuples formed by concatenation. Tags combine by the paper's
// table; "ignore" results are discarded. Empty position lists yield
// the cross product. The schemes must be disjoint.
func JoinOn(a, b *Tagged, lpos, rpos []int) (*Tagged, error) {
	cs, err := a.scheme.Concat(b.scheme)
	if err != nil {
		return nil, err
	}
	if len(lpos) != len(rpos) {
		return nil, fmt.Errorf("relation: JoinOn with %d left and %d right positions", len(lpos), len(rpos))
	}
	out := NewTaggedCap(cs, a.a.len())
	ix := newHandleIndex(b.a.len())
	var kb []byte
	pbuf := make(tuple.Tuple, len(rpos))
	b.a.rows.each(func(h int32, t tuple.Tuple) {
		for i, pos := range rpos {
			pbuf[i] = t[pos]
		}
		kb = tuple.AppendKey(kb[:0], pbuf)
		ix.add(kb, h)
	})
	lbuf := make(tuple.Tuple, len(lpos))
	a.Each(func(ta tuple.Tuple, ga tuple.Tag) {
		for i, pos := range lpos {
			lbuf[i] = ta[pos]
		}
		kb = tuple.AppendKey(kb[:0], lbuf)
		ix.eachRef(kb, func(h int32) {
			tag := tuple.JoinTags(ga, b.tags[h])
			if tag == tuple.TagIgnore {
				return
			}
			out.set(ta, b.a.row(h), tag)
		})
	})
	return out, nil
}

// Reorder returns the tagged relation with columns permuted to the
// given attribute order, which must be a permutation of the scheme's
// attributes (so the mapping is bijective and tags are preserved).
func (g *Tagged) Reorder(attrs []schema.Attribute) (*Tagged, error) {
	if len(attrs) != g.scheme.Arity() {
		return nil, fmt.Errorf("relation: Reorder with %d of %d attributes", len(attrs), g.scheme.Arity())
	}
	pos, err := g.scheme.Positions(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := g.scheme.Project(attrs)
	if err != nil {
		return nil, err
	}
	if isIdentity(pos, g.scheme.Arity()) {
		// Already in order (the common case for select-shaped views):
		// rebind the scheme over a cheap handle-preserving clone.
		out := g.Clone()
		out.scheme = ps
		return out, nil
	}
	out := NewTaggedCap(ps, g.Len())
	buf := make(tuple.Tuple, len(pos))
	g.Each(func(t tuple.Tuple, tag tuple.Tag) {
		for i, p := range pos {
			buf[i] = t[p]
		}
		out.Set(buf, tag)
	})
	if out.Len() != g.Len() {
		return nil, fmt.Errorf("relation: Reorder collapsed tuples; attribute list is not a permutation")
	}
	return out, nil
}

// CountAll projects the tagged relation onto attrs with §5.2 counting,
// counting every tuple regardless of tag. It is used to materialize a
// view from scratch (all tuples tagged old).
func (g *Tagged) CountAll(attrs []schema.Attribute) (*Counted, error) {
	pos, err := g.scheme.Positions(attrs)
	if err != nil {
		return nil, err
	}
	ps, err := g.scheme.Project(attrs)
	if err != nil {
		return nil, err
	}
	out := NewCountedCap(ps, g.Len())
	buf := make(tuple.Tuple, len(pos))
	g.Each(func(t tuple.Tuple, _ tuple.Tag) {
		for i, p := range pos {
			buf[i] = t[p]
		}
		out.bump(buf, 1)
	})
	return out, nil
}

// isIdentity reports whether projecting onto pos reproduces a tuple of
// the given arity unchanged.
func isIdentity(pos []int, arity int) bool {
	if len(pos) != arity {
		return false
	}
	for i, p := range pos {
		if p != i {
			return false
		}
	}
	return true
}

// Deltas projects the tagged relation onto attrs with §5.2 counting and
// splits the result by tag: inserted derivations and deleted
// derivations. Tuples tagged old or ignore contribute to neither.
//
// The returned counted relations are what Algorithm 5.1 applies to the
// stored view: v' = v ⊎ ins ⊖ del.
func (g *Tagged) Deltas(attrs []schema.Attribute) (ins, del *Counted, err error) {
	pos, err := g.scheme.Positions(attrs)
	if err != nil {
		return nil, nil, err
	}
	ps, err := g.scheme.Project(attrs)
	if err != nil {
		return nil, nil, err
	}
	return g.DeltasPlanned(pos, ps)
}

// DeltasPlanned is Deltas with the projection plan precomputed
// (g.Scheme().Positions(attrs) and g.Scheme().Project(attrs));
// maintainers that split the same joint relation every commit cache
// the plan instead of re-deriving two schemes per transaction.
func (g *Tagged) DeltasPlanned(pos []int, ps *schema.Scheme) (ins, del *Counted, err error) {
	ins, del = NewCountedCap(ps, g.Len()), NewCountedCap(ps, g.Len())
	buf := make(tuple.Tuple, len(pos))
	g.Each(func(t tuple.Tuple, tag tuple.Tag) {
		var target *Counted
		switch tag {
		case tuple.TagInsert:
			target = ins
		case tuple.TagDelete:
			target = del
		default:
			return
		}
		for i, p := range pos {
			buf[i] = t[p]
		}
		target.bump(buf, 1)
	})
	return ins, del, nil
}
