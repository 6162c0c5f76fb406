package relation

import (
	"testing"

	"mview/internal/tuple"
)

// trieShape returns the deepest leaf's level and the number of leaves.
func trieShape(n *trieNode, level int) (depth, leaves int) {
	if n == nil {
		return 0, 0
	}
	if n.kids == nil {
		return level, 1
	}
	for _, k := range n.kids {
		d, l := trieShape(k, level+1)
		depth, leaves = max(depth, d), leaves+l
	}
	return depth, leaves
}

// TestTrieStaysShallowOnRegularKeys pins the row hash against the key
// patterns real data has — consecutive ids, a constant column, strided
// values — where a weak mix would pile rows into a few subtrees.
func TestTrieStaysShallowOnRegularKeys(t *testing.T) {
	// 16 rows per leaf at level 3 if the hash spreads them evenly: far
	// enough below leafCap that an even spread splits no leaf further.
	const n = 16 * trieFan * trieFan * trieFan
	patterns := map[string]func(i int64) tuple.Tuple{
		"consecutive": func(i int64) tuple.Tuple { return tuple.Tuple{i, 0} },
		"second-col":  func(i int64) tuple.Tuple { return tuple.Tuple{7, i} },
		"strided":     func(i int64) tuple.Tuple { return tuple.Tuple{i << 20, i * 4096} },
		"negative":    func(i int64) tuple.Tuple { return tuple.Tuple{-i, i} },
	}
	for name, row := range patterns {
		a := newRowArena(2)
		for i := int64(0); i < n; i++ {
			a.addNew(row(i))
		}
		depth, leaves := trieShape(a.root, 0)
		if depth > 4 || leaves > n/16+n/160 {
			t.Errorf("%s: %d rows in %d leaves, deepest at level %d; want about %d leaves at level 3",
				name, n, leaves, depth, n/16)
		}
		for i := int64(0); i < n; i += 997 {
			if h, _, ok := a.find(row(i)); !ok || int64(h) != i {
				t.Fatalf("%s: find(row %d) = %d, %v", name, i, h, ok)
			}
		}
	}
}

// TestTrieFullCollisions drives every row onto one hash: the first full
// leaf becomes a value fork at the root, the rows split by handle into
// leaves no larger than an ordinary one one level down, and find,
// remove and re-add still work by comparing rows.
func TestTrieFullCollisions(t *testing.T) {
	hashMangle = func(uint32) uint32 { return 0xdeadbeef }
	defer func() { hashMangle = nil }()

	const n = 3 * leafCap
	a := newRowArena(1)
	for i := int64(0); i < n; i++ {
		a.addNew(tuple.Tuple{i})
	}
	if depth, leaves := trieShape(a.root, 0); depth != 1 || leaves < n/leafCap || a.root.ents == nil {
		t.Fatalf("shape: %d leaves, deepest at level %d, value fork at the root %v; want one, over at least %d leaves at level 1",
			leaves, depth, a.root.ents != nil, n/leafCap)
	}
	frozen := a.cloneShared()
	for i := int64(0); i < n; i++ {
		h, hash, ok := a.find(tuple.Tuple{i})
		if !ok || int64(h) != i {
			t.Fatalf("find(%d) = %d, %v", i, h, ok)
		}
		a.remove(hash, h)
		if _, _, ok := a.find(tuple.Tuple{i}); ok {
			t.Fatalf("row %d still found after remove", i)
		}
	}
	if a.root != nil || a.len() != 0 {
		t.Fatalf("emptied arena keeps root %v, len %d", a.root, a.len())
	}
	for i := int64(0); i < n; i++ {
		if h, _, ok := frozen.find(tuple.Tuple{i}); !ok || int64(h) != i {
			t.Fatalf("clone lost row %d to the source's removes", i)
		}
	}
}

// TestTrieValueForkMovesDown: a value fork that another hash reaches
// moves down behind hash forks until the two hashes part. Two groups of
// rows hash to 0x00000001 and 0x10000001, which agree on every nibble
// but the last the trie routes on; the first group fills a leaf and
// becomes a value fork at the root, the second then pushes it down to
// level 7, and both stay findable and removable, while a clone taken
// before the second group keeps its own shape.
func TestTrieValueForkMovesDown(t *testing.T) {
	hashMangle = func(h uint32) uint32 { return 0x00000001 | h&1<<28 }
	defer func() { hashMangle = nil }()

	var groups [2][]int64
	for i := int64(0); len(groups[0]) < 2*leafCap || len(groups[1]) < 2*leafCap; i++ {
		g := hashRow(tuple.Tuple{i}) >> 28
		groups[g] = append(groups[g], i)
	}
	a := newRowArena(1)
	for _, i := range groups[0][:2*leafCap] {
		a.addNew(tuple.Tuple{i})
	}
	if a.root.ents == nil {
		t.Fatal("a full leaf of one hash did not become a value fork")
	}
	frozen := a.cloneShared()
	for _, i := range groups[1][:2*leafCap] {
		a.addNew(tuple.Tuple{i})
	}
	if depth, _ := trieShape(a.root, 0); depth != hashBits/trieBits+1 {
		t.Fatalf("deepest leaf at level %d, want %d: value forks at level %d", depth, hashBits/trieBits+1, hashBits/trieBits)
	}
	for g, rows := range groups {
		for _, i := range rows[:2*leafCap] {
			h, hash, ok := a.find(tuple.Tuple{i})
			if !ok {
				t.Fatalf("group %d: row %d not found", g, i)
			}
			a.remove(hash, h)
			if _, _, ok := a.find(tuple.Tuple{i}); ok {
				t.Fatalf("group %d: row %d still found after remove", g, i)
			}
		}
	}
	if a.root != nil || a.len() != 0 {
		t.Fatalf("emptied arena keeps root %v, len %d", a.root, a.len())
	}
	for _, i := range groups[0][:2*leafCap] {
		if _, _, ok := frozen.find(tuple.Tuple{i}); !ok {
			t.Fatalf("clone lost row %d to the source's writes", i)
		}
	}
	if depth, _ := trieShape(frozen.root, 0); depth != 1 || frozen.root.ents == nil {
		t.Fatalf("clone's shape changed: deepest leaf at level %d", depth)
	}
}

// TestColumnAcrossLevels grows a column through three fork levels and
// checks values, in-place writes, and that a copy taken under another
// generation is unaffected by writes on either side.
func TestColumnAcrossLevels(t *testing.T) {
	const n = spineFan*spineFan*spineFan*spineFan + 5*spineFan + 3
	var c column
	for i := int32(0); i < n; i++ {
		c.set(i, int64(i)*3, 0)
	}
	root := c.leaves.root
	c.set(77, -1, 0)
	if c.leaves.root != root || c.get(77) != -1 {
		t.Fatal("a write under the owning generation did not land in place")
	}
	c.set(77, 77*3, 0)

	// Generations 1 and 2 share everything generation 0 built.
	a, b := c, c
	a.set(n-1, -5, 1)
	a.set(n, -6, 1)
	b.set(0, -7, 2)
	for i := int32(0); i < n; i++ {
		want := int64(i) * 3
		wa, wb := want, want
		if i == n-1 {
			wa = -5
		}
		if i == 0 {
			wb = -7
		}
		if c.get(i) != want || a.get(i) != wa || b.get(i) != wb {
			t.Fatalf("handle %d: original %d (want %d), a %d (want %d), b %d (want %d)",
				i, c.get(i), want, a.get(i), wa, b.get(i), wb)
		}
	}
	if a.get(n) != -6 {
		t.Fatalf("handle %d past the shared ones: a %d, want -6", n, a.get(n))
	}
}

// TestRowStoreAcrossGenerations appends rows through several pages
// under alternating generations — each change of generation must copy
// the page being filled rather than write into it — and checks that
// every earlier header still reads exactly the rows it had.
func TestRowStoreAcrossGenerations(t *testing.T) {
	type frozen struct {
		r rowStore
		n int32
	}
	var held []frozen
	r := newRowStore(2, 0)
	check := func(label string, r *rowStore, n int32) {
		t.Helper()
		if r.n != n {
			t.Fatalf("%s: n = %d, want %d", label, r.n, n)
		}
		seen := int32(0)
		r.each(func(h int32, row tuple.Tuple) {
			if h != seen || row[0] != int64(h) || row[1] != -int64(h) {
				t.Fatalf("%s: each yields handle %d row %v at position %d", label, h, row, seen)
			}
			seen++
		})
		if seen != n {
			t.Fatalf("%s: each visited %d rows, want %d", label, seen, n)
		}
		for h := int32(0); h < n; h += 7 {
			if row := r.row(h); row[0] != int64(h) || row[1] != -int64(h) {
				t.Fatalf("%s: row(%d) = %v", label, h, row)
			}
		}
	}
	for gen := uint64(0); gen < 40; gen++ {
		held = append(held, frozen{r, r.n})
		for i := 0; i < 3+int(gen)*5%(pageRows+9); i++ {
			r.add(gen, tuple.Tuple{int64(r.n), -int64(r.n)})
		}
		// A sibling appending to the same header under its own
		// generation must not show through either.
		sibling := r
		sibling.add(gen+1000, tuple.Tuple{-1, -1})
		check("head", &r, r.n)
	}
	if r.pages < 3 {
		t.Fatalf("only %d full pages; the test wants several", r.pages)
	}
	for i, f := range held {
		check("held "+string(rune('A'+i%26)), &f.r, f.n)
	}
}
