package relation

import "mview/internal/tuple"

// rowArena is the flat storage unit shared by all three relation
// representations: tuple values live back-to-back in pages of int64
// rows addressed by small-int handles (rows.go), and the only per-tuple
// index state is one packed hash|handle word in a persistent hash trie
// (trie.go). Compared to the seed's map[string]tuple.Tuple, a full scan
// walks contiguous pages instead of chasing a boxed allocation per
// tuple, no key is ever encoded or stored, and the per-tuple containers
// (Counted counts, Tagged tags) become dense side columns indexed by
// handle.
//
// Two invariants make zero-copy reads safe:
//
//   - Rows are append-only: a stored row is never overwritten in
//     place. Deletion only unlinks the handle from the trie (the row is
//     reclaimed by the next compaction, which builds a fresh arena —
//     the old pages, and any outstanding alias into them, stay intact).
//     Row slices handed out by each/row therefore behave like the
//     immutable tuples they replace, and may be retained by indexes,
//     tagged lifts, or snapshot readers.
//   - Handles are never reused. The next handle is always rows.n, so
//     side columns (counts, tags) indexed by handle stay aligned by
//     plain appends.
//
// Cost model. Rows, trie and counts are all copy-on-write by
// generation: whatever an arena allocates carries the arena's
// generation, an arena writes in place only what carries its own, and
// cloneShared — O(1), a header copy — moves both sides to fresh
// generations. A write after that is O(log n): it copies one trie path,
// and an append copies the page being filled. A scan is O(n): linear
// over the pages while nothing is dead, otherwise a walk of the trie.
// Compaction (clone) is the one O(n) step a write can trigger, once
// dead rows outnumber live ones, so it amortizes to O(1) per delete. A
// commit therefore pays for the tuples it touches and never for the
// size of the container — the difference between O(|delta|) and
// O(|view|) maintenance that §5's differential re-evaluation is about.
type rowArena struct {
	rows rowStore
	live int32 // rows currently live
	dead int32 // stored rows no longer live

	// root indexes the live rows by hash. Only mutators read gen, so
	// cloneShared may restamp a source that snapshot readers are still
	// scanning.
	root *trieNode
	gen  uint64
}

func newRowArena(arity int) *rowArena { return newRowArenaCap(arity, 0) }

func newRowArenaCap(arity, n int) *rowArena {
	return &rowArena{rows: newRowStore(arity, n)}
}

// len returns the number of live rows.
func (a *rowArena) len() int { return int(a.live) }

// row returns handle h's values.
func (a *rowArena) row(h int32) tuple.Tuple { return a.rows.row(h) }

// rowIs reports whether handle h's row equals the concatenation of p
// and q.
func (a *rowArena) rowIs(h int32, p, q []int64) bool {
	r := a.rows.row(h)
	for i, v := range p {
		if r[i] != v {
			return false
		}
	}
	r = r[len(p):]
	for i, v := range q {
		if r[i] != v {
			return false
		}
	}
	return true
}

// find looks the concatenation of p and q up, without allocating. It
// also returns the row hash, which add and remove take.
func (a *rowArena) find(p, q []int64) (h int32, hash uint32, ok bool) {
	hash = hashRow(p, q)
	n := a.root
	for shift := uint(0); n != nil && n.kids != nil; shift += trieBits {
		n = n.kids[hash>>shift&(trieFan-1)]
	}
	if n != nil {
		for _, e := range n.ents {
			if uint32(e>>32) == hash && a.rowIs(entryHandle(e), p, q) {
				return entryHandle(e), hash, true
			}
		}
	}
	return 0, hash, false
}

// add appends the concatenation of p and q as a new live row under its
// hash and returns the handle. The caller has checked absence.
func (a *rowArena) add(hash uint32, p, q []int64) int32 {
	h := a.rows.n
	a.rows.add(a.gen, p, q)
	a.live++
	a.root = a.trieInsert(a.root, 0, entry(hash, h))
	return h
}

// addNew is add for a row known to be absent whose hash is not at hand.
func (a *rowArena) addNew(p, q []int64) int32 { return a.add(hashRow(p, q), p, q) }

// remove unlinks live handle h, found under hash, and marks its row
// dead.
func (a *rowArena) remove(hash uint32, h int32) {
	a.root = a.trieRemove(a.root, 0, hash, h)
	a.dead++
	a.live--
}

// each calls f for every live row and its handle: a straight pass over
// the pages while no row is dead, otherwise in trie order. The callback
// must not mutate the row (retaining is safe — rows are immutable once
// stored).
func (a *rowArena) each(f func(h int32, t tuple.Tuple)) {
	if a.dead == 0 {
		a.rows.each(f)
		return
	}
	a.root.walk(func(e uint64) { f(entryHandle(e), a.rows.row(entryHandle(e))) })
}

// tooManyDead reports whether dead rows dominate the arena enough to
// warrant compaction; the slack keeps small relations from compacting
// on every delete.
func (a *rowArena) tooManyDead() bool {
	return a.dead > 64 && a.dead > a.live
}

// clone returns a compacted deep copy: live rows packed into a fresh
// arena, handles renumbered from zero. moved, when non-nil, is called
// with each live row's old handle, in new-handle order, so callers can
// carry a side column over by pushing.
func (a *rowArena) clone(moved func(old int32)) *rowArena {
	out := newRowArenaCap(a.rows.width, a.len())
	a.root.walk(func(e uint64) {
		h := entryHandle(e)
		out.add(uint32(e>>32), a.rows.row(h), nil)
		if moved != nil {
			moved(h)
		}
	})
	return out
}

// cloneShared returns a copy preserving handle numbering in O(1): rows
// and trie are shared outright, and both arenas move to fresh
// generations so that whichever writes next copies what it touches.
// Nothing a reader of the source can see is written, so clones are
// race-free against concurrent snapshot readers of the source.
func (a *rowArena) cloneShared() *rowArena {
	c := *a
	c.gen = lastGen.Add(1)
	a.gen = lastGen.Add(1)
	return &c
}

// handleIndex buckets row references by a projection key for hash
// joins. Refs are opaque int64s (plain handles, or shard<<32|handle
// for sharded relations). Buckets are singly-linked lists threaded
// through one pooled node slice, so building the index costs two
// amortized slice appends per row plus one key-string allocation per
// distinct join key — never a per-bucket slice. The map is assigned
// only for first-seen keys (map assignment, unlike lookup, cannot
// elide the string([]byte) conversion); list heads live in a dense
// side slice so repeat keys touch no map state.
type handleIndex struct {
	slots map[string]int32 // key → slot, assigned once per distinct key
	heads []int32          // slot → index of newest node in pool, -1 none
	pool  []refNode
}

type refNode struct {
	ref  int64
	next int32 // pool index of the next ref with this key, -1 ends
}

func newHandleIndex(sizeHint int) *handleIndex {
	if sizeHint == 0 {
		return &handleIndex{}
	}
	return &handleIndex{
		slots: make(map[string]int32, sizeHint),
		heads: make([]int32, 0, sizeHint),
		pool:  make([]refNode, 0, sizeHint),
	}
}

func (ix *handleIndex) add(k []byte, ref int64) {
	s, ok := ix.slots[string(k)]
	if !ok {
		if ix.slots == nil {
			ix.slots = make(map[string]int32, 8)
		}
		s = int32(len(ix.heads))
		ix.heads = append(ix.heads, -1)
		ix.slots[string(k)] = s
	}
	ix.pool = append(ix.pool, refNode{ref: ref, next: ix.heads[s]})
	ix.heads[s] = int32(len(ix.pool) - 1)
}

// eachRef calls f for every ref stored under k (in reverse insertion
// order, which joins don't care about).
func (ix *handleIndex) eachRef(k []byte, f func(int64)) {
	s, ok := ix.slots[string(k)]
	if !ok {
		return
	}
	for n := ix.heads[s]; n >= 0; n = ix.pool[n].next {
		f(ix.pool[n].ref)
	}
}
