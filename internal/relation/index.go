package relation

import (
	"fmt"

	"mview/internal/tuple"
)

// Index is a single-column hash index that is part of its Relation's
// copy-on-write storage. Differential view maintenance probes it with
// delta tuples, turning each truth-table row into work proportional to
// the delta rather than to the base relation (the production-grade
// counterpart of the paper's observation that "one only needs to
// compute the contribution of the new tuples to the join").
//
// It is a trie of the arena's kind (trie.go) whose entries pair the hash
// of a row's indexed value with the row's handle. The relation keeps it
// current — Insert and Delete write it, and a reused handle's entry
// names the row that now fills the slot — and Clone shares it like the
// rows, so every instance carries indexes that describe exactly its own
// rows: a pinned snapshot, a clone a computation rewrote, the live base.
// Entries that share a value share its hash; past a leaf's worth they
// sit under a value fork (trie.go) that splits them by handle, so Insert
// and Delete are O(log n) at any fan-out.
//
// A *Index stays valid until the next AddIndex on its relation.
type Index struct {
	r    *Relation
	pos  int
	root *trieNode
}

// AddIndex indexes the relation on column pos, in O(n); a column
// already indexed is left as it is. Like any write, it must not reach a
// relation a reader may hold: index a clone.
func (r *Relation) AddIndex(pos int) error {
	if pos < 0 || pos >= r.scheme.Arity() {
		return fmt.Errorf("relation: index position %d outside scheme %s", pos, r.scheme)
	}
	if r.Index(pos) != nil {
		return nil
	}
	r.ixs = append(r.ixs, Index{r: r, pos: pos})
	r.ixs[len(r.ixs)-1].build()
	return nil
}

// Index returns the relation's index on column pos, nil when it has
// none.
func (r *Relation) Index(pos int) *Index {
	for i := range r.ixs {
		if r.ixs[i].pos == pos {
			return &r.ixs[i]
		}
	}
	return nil
}

// BuildIndex returns an index on column pos of a copy of r: the copy
// shares r's rows (as Clone does) and carries this one index, and r is
// left as it is. Add and Remove write the copy. It serves callers that
// keep an index beside relations of their own; a relation the engine
// keeps carries its indexes itself (AddIndex).
func BuildIndex(r *Relation, pos int) (*Index, error) {
	c := &Relation{scheme: r.scheme, a: r.a.cloneShared()}
	if err := c.AddIndex(pos); err != nil {
		return nil, err
	}
	return &c.ixs[0], nil
}

// Pos returns the indexed column position.
func (ix *Index) Pos() int { return ix.pos }

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return ix.r.Len() }

// Add inserts t into the indexed relation. It has no error to return,
// so a tuple of the wrong arity is ignored.
func (ix *Index) Add(t tuple.Tuple) { _ = ix.r.Insert(t) }

// Remove deletes t from the indexed relation; removing an absent tuple
// is a no-op.
func (ix *Index) Remove(t tuple.Tuple) { ix.r.Delete(t) }

// EachMatch calls f for every tuple whose indexed column equals v. It
// is the allocation-free probe used by the delta-join hot path; the
// callback must not mutate the tuple.
func (ix *Index) EachMatch(v tuple.Value, f func(tuple.Tuple)) {
	hash, a := hashValue(v), &ix.r.a
	match := func(e uint64) {
		if uint32(e>>32) == hash {
			if t := a.row(entryHandle(e)); t[ix.pos] == v {
				f(t)
			}
		}
	}
	n := ix.root.under(hash)
	if n == nil || n.kids != nil {
		// A value whose entries outgrew a leaf, split by handle.
		n.walk(match)
		return
	}
	for _, e := range n.ents {
		match(e)
	}
}

// insert and remove index or un-index row t under handle h.
func (ix *Index) insert(h int32, t tuple.Tuple) {
	ix.root = ix.r.a.trieInsert(ix.root, 0, entry(hashValue(t[ix.pos]), h))
}

func (ix *Index) remove(h int32, t tuple.Tuple) {
	ix.root = ix.r.a.trieRemove(ix.root, 0, entry(hashValue(t[ix.pos]), h))
}

// build indexes every live row of the relation afresh.
func (ix *Index) build() {
	ix.root = nil
	ix.r.a.each(ix.insert)
}

// hashValue hashes one column value the way hashRow hashes a row.
func hashValue(v tuple.Value) uint32 { return hashRow([]int64{v}) }
