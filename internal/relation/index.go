package relation

import (
	"fmt"

	"mview/internal/tuple"
)

// Index is a persistent single-column hash index over a base relation,
// maintained incrementally as transactions commit. Differential view
// maintenance probes these indexes with delta tuples, turning each
// truth-table row into work proportional to the delta rather than to
// the base relation (the production-grade counterpart of the paper's
// observation that "one only needs to compute the contribution of the
// new tuples to the join").
//
// Add and Remove are expected O(1) whatever a value's fan-out: a
// bucket that outgrows a short scan finds a tuple by its row hash.
type Index struct {
	pos int
	m   map[tuple.Value]ixBucket
	n   int
	// compares counts the full-tuple comparisons Remove made, so tests
	// can check its cost.
	compares int
}

// ixBucket holds the tuples sharing one indexed value. The first two
// tuples are stored inline: unique and low-fanout columns (keys,
// foreign keys with a couple of children) dominate index usage, so the
// common small bucket costs a map entry and no further allocation.
type ixBucket struct {
	one  tuple.Tuple // first tuple; nil only in the zero value
	two  tuple.Tuple // second tuple; nil when the bucket holds one
	over *ixOverflow // tuples beyond the first two; nil when none
}

// ixOverflow holds a bucket's tuples beyond the first two, unordered.
// Past ixHashMin tuples each carries its row hash, so Remove compares a
// tuple only where the hash matches and a scan reads one dense []uint32
// rather than every tuple; past ixMapMin, at maps a hash to its
// position and Remove does not scan at all.
type ixOverflow struct {
	rest []tuple.Tuple
	hs   []uint32 // hs[i] is rest[i]'s row hash; nil below ixHashMin
	// at maps a row hash to the position of its tuple. A tuple whose
	// hash another tuple already holds stays out of at and is counted
	// in unmapped; only while unmapped > 0 does a miss fall back to a
	// scan of hs.
	at       map[uint32]int32
	unmapped int
}

// ixHashMin and ixMapMin are the overflow lengths at which a bucket
// starts keeping hs and at (at is dropped again below half of
// ixMapMin): below each, a plain scan costs less than the upkeep.
const (
	ixHashMin = 16
	ixMapMin  = 256
)

// NewIndex returns an empty index on column pos of the indexed
// relation's scheme.
func NewIndex(pos int) *Index {
	return &Index{pos: pos, m: make(map[tuple.Value]ixBucket)}
}

// BuildIndex indexes every tuple of r on column pos.
func BuildIndex(r *Relation, pos int) (*Index, error) {
	if pos < 0 || pos >= r.Scheme().Arity() {
		return nil, fmt.Errorf("relation: index position %d outside scheme %s", pos, r.Scheme())
	}
	ix := NewIndex(pos)
	r.Each(ix.Add)
	return ix, nil
}

// Pos returns the indexed column position.
func (ix *Index) Pos() int { return ix.pos }

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return ix.n }

// Add indexes t. The caller must not mutate t afterwards.
func (ix *Index) Add(t tuple.Tuple) {
	k := t[ix.pos]
	b := ix.m[k]
	switch {
	case b.one == nil:
		b.one = t
	case b.two == nil:
		b.two = t
	default:
		if b.over == nil {
			b.over = &ixOverflow{}
		}
		b.over.add(t)
	}
	ix.m[k] = b
	ix.n++
}

// Remove un-indexes t (matching by full tuple equality) in expected
// O(1) at any fan-out. Removing an absent tuple is a no-op.
func (ix *Index) Remove(t tuple.Tuple) {
	k := t[ix.pos]
	b, ok := ix.m[k]
	if !ok {
		return
	}
	// A hashed overflow is searched first, at one comparison where the
	// inline slots would cost two; a short one last, as it scans.
	hashed := b.over != nil && b.over.hs != nil
	if hashed && ix.removeOver(&b, k, t) {
		return
	}
	switch {
	case ix.compare(b.one, t):
		b.one = b.two
		b.two = nil
	case b.two != nil && ix.compare(b.two, t):
		b.two = nil
	default:
		if !hashed && b.over != nil {
			ix.removeOver(&b, k, t)
		}
		return
	}
	// An inline slot was vacated: backfill from the overflow so the
	// inline slots stay the densely packed prefix of the bucket.
	if o := b.over; b.two == nil && o != nil {
		b.two = o.rest[len(o.rest)-1]
		o.remove(len(o.rest) - 1)
		if len(o.rest) == 0 {
			b.over = nil
		}
	}
	if b.one == nil {
		delete(ix.m, k)
	} else {
		ix.m[k] = b
	}
	ix.n--
}

// removeOver removes t from the overflow of b, value k's bucket, and
// reports whether it was there.
func (ix *Index) removeOver(b *ixBucket, k tuple.Value, t tuple.Tuple) bool {
	o := b.over
	i := o.find(ix, t)
	if i < 0 {
		return false
	}
	o.remove(i)
	if len(o.rest) == 0 {
		b.over = nil
		ix.m[k] = *b
	}
	ix.n--
	return true
}

// compare reports whether u equals t, counting the comparison.
func (ix *Index) compare(u, t tuple.Tuple) bool {
	ix.compares++
	return u.Equal(t)
}

func (o *ixOverflow) add(t tuple.Tuple) {
	o.rest = append(o.rest, t)
	switch {
	case o.hs != nil:
		o.hs = append(o.hs, hashRow(t))
	case len(o.rest) == ixHashMin:
		o.hs = make([]uint32, len(o.rest), 2*ixHashMin)
		for i, u := range o.rest {
			o.hs[i] = hashRow(u)
		}
	}
	switch {
	case o.at != nil:
		o.mapAt(len(o.rest) - 1)
	case len(o.rest) == ixMapMin:
		o.at = make(map[uint32]int32, 2*ixMapMin)
		for i := range o.rest {
			o.mapAt(i)
		}
	}
}

// mapAt enters position i into at.
func (o *ixOverflow) mapAt(i int) {
	if _, taken := o.at[o.hs[i]]; taken {
		o.unmapped++
		return
	}
	o.at[o.hs[i]] = int32(i)
}

// find returns t's position, or -1 when t is not in the overflow.
func (o *ixOverflow) find(ix *Index, t tuple.Tuple) int {
	if o.hs == nil {
		for i, u := range o.rest {
			if ix.compare(u, t) {
				return i
			}
		}
		return -1
	}
	h := hashRow(t)
	if o.at != nil {
		if i, ok := o.at[h]; ok && ix.compare(o.rest[i], t) {
			return int(i)
		}
		if o.unmapped == 0 {
			return -1
		}
	}
	for i, g := range o.hs {
		if g == h && ix.compare(o.rest[i], t) {
			return i
		}
	}
	return -1
}

// remove drops position i by moving the last tuple into it, keeping at
// in step.
func (o *ixOverflow) remove(i int) {
	last := len(o.rest) - 1
	if o.at != nil {
		if j, ok := o.at[o.hs[i]]; ok && int(j) == i {
			delete(o.at, o.hs[i])
		} else {
			o.unmapped--
		}
		if j, ok := o.at[o.hs[last]]; ok && int(j) == last && i != last {
			o.at[o.hs[last]] = int32(i)
		}
	}
	o.rest[i] = o.rest[last]
	o.rest[last] = nil
	o.rest = o.rest[:last]
	if o.hs != nil {
		o.hs[i] = o.hs[last]
		o.hs = o.hs[:last]
	}
	if o.at != nil && last < ixMapMin/2 {
		o.at, o.unmapped = nil, 0
	}
}

// EachMatch calls f for every indexed tuple whose indexed column equals
// v. It is the allocation-free probe used by the delta-join hot path.
func (ix *Index) EachMatch(v tuple.Value, f func(tuple.Tuple)) {
	b, ok := ix.m[v]
	if !ok {
		return
	}
	f(b.one)
	if b.two != nil {
		f(b.two)
	}
	if b.over != nil {
		for _, u := range b.over.rest {
			f(u)
		}
	}
}

// Probe returns the tuples whose indexed column equals v, nil when
// none. The returned slice is freshly allocated; hot paths iterate with
// EachMatch instead. The caller must not mutate the tuples.
func (ix *Index) Probe(v tuple.Value) []tuple.Tuple {
	b, ok := ix.m[v]
	if !ok {
		return nil
	}
	var rest []tuple.Tuple
	if b.over != nil {
		rest = b.over.rest
	}
	out := make([]tuple.Tuple, 0, 2+len(rest))
	out = append(out, b.one)
	if b.two != nil {
		out = append(out, b.two)
	}
	return append(out, rest...)
}
