package relation

import "mview/internal/tuple"

// rowArena is the flat storage unit shared by both relation
// representations: tuple values live back-to-back in pages of int64
// rows addressed by small-int handles (rows.go), and the only per-tuple
// index state is one packed hash|handle word in a persistent hash trie
// (trie.go). Compared to the seed's map[string]tuple.Tuple, a full scan
// walks contiguous pages instead of chasing a boxed allocation per
// tuple, no key is ever encoded or stored, and Counted's per-tuple
// counts become a dense side column indexed by handle.
//
// A removed row's handle goes on a free list, and the next add reuses
// the most recently freed handle before it appends one, so an arena
// holds no dead rows: its pages hold exactly the live rows plus the
// slots that net deletes freed and no insert has refilled yet. A
// reused handle is written in place, which gives zero-copy reads one
// rule:
//
//   - A row slice handed out by each/row stays valid until the next
//     write to its arena by the generation that owns its page. A page
//     that another generation can still read is copied before it is
//     written, so a Clone or a pinned snapshot of the arena keeps
//     every row it can reach; anything else that keeps rows across a
//     write to the arena they came from must copy them, or hold such a
//     clone.
//
// Cost model. Rows, free list, trie and counts are all copy-on-write by
// generation: whatever an arena allocates carries the arena's
// generation, an arena writes in place only what carries its own, and
// cloneShared — O(1), a header copy — moves both sides to fresh
// generations. A write after that is O(log n): it copies one trie path
// and, for a row it stores, one page and the spine path to it. A delete
// is O(log n) and frees the slot; nothing a write triggers is O(n). A
// scan is O(n): linear over the pages while no slot is free, otherwise
// a walk of the trie. A commit therefore pays for the tuples it touches
// and never for the size of the container — the difference between
// O(|delta|) and O(|view|) maintenance that §5's differential
// re-evaluation is about.
type rowArena struct {
	rows rowStore
	live int32 // rows currently live

	// free holds the handles of the removed rows that no add has reused
	// yet, nfree of them: a stack that add pops from the top.
	free  spine[int32]
	nfree int32

	// root indexes the live rows by hash. Only mutators read gen, so
	// cloneShared may restamp a source that snapshot readers are still
	// scanning.
	root *trieNode
	gen  uint64
}

func newRowArena(arity int) rowArena { return newRowArenaCap(arity, 0) }

func newRowArenaCap(arity, n int) rowArena {
	return rowArena{rows: newRowStore(arity, n)}
}

// len returns the number of live rows.
func (a *rowArena) len() int { return int(a.live) }

// row returns handle h's values.
func (a *rowArena) row(h int32) tuple.Tuple { return a.rows.row(h) }

// rowIs reports whether handle h's row equals t.
func (a *rowArena) rowIs(h int32, t []int64) bool {
	r := a.rows.row(h)
	for i, v := range t {
		if r[i] != v {
			return false
		}
	}
	return true
}

// find looks t up, without allocating. It also returns the row hash,
// which add and remove take.
func (a *rowArena) find(t []int64) (h int32, hash uint32, ok bool) {
	hash = hashRow(t)
	n := a.root.under(hash)
	if n == nil || n.kids == nil {
		if n != nil {
			for _, e := range n.ents {
				if uint32(e>>32) == hash && a.rowIs(entryHandle(e), t) {
					return entryHandle(e), hash, true
				}
			}
		}
		return 0, hash, false
	}
	// A value fork: rows whose hashes collide outright.
	n.walk(func(e uint64) {
		if !ok && a.rowIs(entryHandle(e), t) {
			h, ok = entryHandle(e), true
		}
	})
	return h, hash, ok
}

// add stores t as a new live row under its hash and returns the
// handle: the most recently freed one if any, else the next appended.
// The caller has checked absence.
func (a *rowArena) add(hash uint32, t []int64) int32 {
	var h int32
	if a.nfree > 0 {
		a.nfree--
		h = a.free.get(a.nfree)
		a.rows.set(h, a.gen, t)
	} else {
		h = a.rows.n
		a.rows.add(a.gen, t)
	}
	a.live++
	a.root = a.trieInsert(a.root, 0, entry(hash, h))
	return h
}

// addNew is add for a row known to be absent whose hash is not at hand.
func (a *rowArena) addNew(t []int64) int32 { return a.add(hashRow(t), t) }

// remove unlinks live handle h, found under hash, and frees its slot
// for the next add.
func (a *rowArena) remove(hash uint32, h int32) {
	a.root = a.trieRemove(a.root, 0, entry(hash, h))
	*a.free.slot(a.nfree, a.gen) = h
	a.nfree++
	a.live--
}

// each calls f for every live row and its handle: a straight pass over
// the pages while no slot is free, otherwise in trie order. The
// callback must not mutate the row; it may retain it under the rule in
// the type comment.
func (a *rowArena) each(f func(h int32, t tuple.Tuple)) {
	if a.nfree == 0 {
		a.rows.each(f)
		return
	}
	a.root.walk(func(e uint64) { f(entryHandle(e), a.rows.row(entryHandle(e))) })
}

// cloneShared returns a copy preserving handle numbering in O(1): rows,
// free list and trie are shared outright, and both arenas move to fresh
// generations so that whichever writes next copies what it touches.
// Nothing a reader of the source can see is written, so clones are
// race-free against concurrent snapshot readers of the source.
func (a *rowArena) cloneShared() rowArena {
	c := *a
	c.gen = lastGen.Add(1)
	a.gen = lastGen.Add(1)
	return c
}
