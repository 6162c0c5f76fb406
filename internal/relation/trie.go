package relation

import (
	"math/bits"
	"sync/atomic"
)

// The handle index of a row arena, and each single-column index of a
// relation (index.go), is a persistent (path-copying) hash trie: 16-way
// forks routed by successive 4-bit slices of an entry's 32-bit hash,
// ending in bucket leaves of packed hash<<32|handle entries. No key is
// stored — a probe filters a bucket by the stored hash and confirms
// against the arena row itself.
//
// Entries that share a hash — an index's entries for one value, or rows
// whose hashes collide outright — cannot be split by it. A full leaf of
// them becomes a value fork instead: a fork that records the one hash
// below it and routes on successive 4-bit slices of the handles. So they
// spread over a subtree of their own, right where the hash bits stopped
// separating them, and a write stays O(log n) however many there are. A
// value fork that another hash reaches moves down behind hash forks
// until the two hashes part.
//
// Buckets rather than one entry per slot keep the node count low: a
// write copies one path of small forks — at most eight routed by hash,
// more only below a value fork — plus one leaf, and a batch of writes
// copies each touched node once, so the number of allocations per
// commit tracks the number of distinct leaves the delta lands in.
//
// Every node carries the generation of the arena that allocated it. An
// arena mutates nodes of its own generation in place and copies any
// other node before writing to it; cloneShared moves both sides to
// fresh generations, which is all it takes to share the whole trie. A
// container that is never cloned therefore never copies a path.
const (
	trieBits = 4
	trieFan  = 1 << trieBits
	hashBits = 32
	keyBits  = 64 // hash bits, then handle bits
	// leafCap is the bucket size at which a leaf splits into a fork; a
	// leaf of up to smallLeafCap entries gets the smaller of two
	// allocations. With the 40-byte node header, 35 and 11 entries fill
	// the 320- and 128-byte allocation size classes exactly. A split
	// leaves about two entries per child, so without the small size a
	// trie just past a split would spend ~150 bytes per row.
	leafCap      = 35
	smallLeafCap = 11
)

type trieNode struct {
	gen  uint64
	kids *[trieFan]*trieNode // fork; nil in a leaf
	// ents is a leaf's bucket of hash<<32 | handle entries, a value
	// fork's one entry whose hash all below it share, nil in a hash fork.
	ents []uint64
}

// leafBox, smallLeafBox and forkBox put a node and its backing array in
// one allocation.
type leafBox struct {
	n   trieNode
	arr [leafCap]uint64
}

type smallLeafBox struct {
	n   trieNode
	arr [smallLeafCap]uint64
}

type forkBox struct {
	n   trieNode
	arr [trieFan]*trieNode
}

type valueForkBox struct {
	n    trieNode
	arr  [trieFan]*trieNode
	hash [1]uint64
}

// lastGen numbers arena generations; zero is the generation of an arena
// that has never been cloned.
var lastGen atomic.Uint64

func entry(hash uint32, h int32) uint64 { return uint64(hash)<<32 | uint64(uint32(h)) }

func entryHandle(e uint64) int32 { return int32(uint32(e)) }

// route returns the child of a fork routing on key bits [shift,
// shift+trieBits) that entry e belongs under: the hash's bits first,
// then the handle's.
func route(e uint64, shift uint) uint64 {
	return bits.RotateLeft64(e, hashBits) >> shift & (trieFan - 1)
}

// under returns the subtree of n that holds every entry of the given
// hash: the leaf the hash's bits lead to, or the value fork of that
// hash; nil when there is neither.
func (n *trieNode) under(hash uint32) *trieNode {
	for shift := uint(0); n != nil && n.kids != nil && shift < hashBits; shift += trieBits {
		if n.ents != nil {
			if uint32(n.ents[0]>>32) != hash {
				return nil
			}
			return n
		}
		n = n.kids[hash>>shift&(trieFan-1)]
	}
	return n
}

// routes returns the key bit at which fork n, at hash-level shift, routes
// its children: a value fork routes on the handle.
func (n *trieNode) routes(shift uint) uint {
	if n.ents != nil {
		return hashBits
	}
	return shift
}

// hashMangle, when set, post-processes every row hash. Tests set it to
// force deep paths and full collisions; it is nil otherwise.
var hashMangle func(uint32) uint32

// hashRow hashes t: one folded 64×64→128 multiply per value, the high
// and low halves folded to 32 bits.
func hashRow(t []int64) uint32 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(k)
	for _, v := range t {
		hi, lo := bits.Mul64(h^uint64(v), k)
		h = hi ^ lo
	}
	out := uint32(h ^ h>>32)
	if hashMangle != nil {
		out = hashMangle(out)
	}
	return out
}

// leafWith returns a leaf a may write to that holds n's entries (none
// for a nil n) and has room for extra more: n itself when a owns it and
// it has the room, else a copy in the smallest allocation that fits.
func (a *rowArena) leafWith(n *trieNode, extra int) *trieNode {
	var ents []uint64
	if n != nil {
		if n.gen == a.gen && len(n.ents)+extra <= cap(n.ents) {
			return n
		}
		ents = n.ents
	}
	var c *trieNode
	if len(ents)+extra <= smallLeafCap {
		b := &smallLeafBox{}
		c, b.n.ents = &b.n, b.arr[:0]
	} else {
		b := &leafBox{}
		c, b.n.ents = &b.n, b.arr[:0]
	}
	c.gen = a.gen
	c.ents = append(c.ents, ents...)
	return c
}

func (a *rowArena) newFork() *trieNode {
	b := &forkBox{}
	b.n.gen = a.gen
	b.n.kids = &b.arr
	return &b.n
}

// newValueFork returns an empty value fork for the hash of entry e.
func (a *rowArena) newValueFork(e uint64) *trieNode {
	b := &valueForkBox{}
	b.n.gen = a.gen
	b.n.kids = &b.arr
	b.hash[0] = e
	b.n.ents = b.hash[:]
	return &b.n
}

// ownFork returns fork n if a may write to it, else a copy a may write
// to.
func (a *rowArena) ownFork(n *trieNode) *trieNode {
	if n.gen == a.gen {
		return n
	}
	var c *trieNode
	if n.ents != nil {
		c = a.newValueFork(n.ents[0])
	} else {
		c = a.newFork()
	}
	*c.kids = *n.kids
	return c
}

// sameHash reports whether every entry of a bucket has one hash.
func sameHash(ents []uint64) bool {
	for _, e := range ents {
		if e>>32 != ents[0]>>32 {
			return false
		}
	}
	return true
}

// trieInsert adds e under n (nil for an empty subtree), whose level
// routes on key bits [shift, shift+trieBits), and returns the subtree's
// new root.
func (a *rowArena) trieInsert(n *trieNode, shift uint, e uint64) *trieNode {
	if n != nil && n.kids == nil && len(n.ents) >= leafCap && shift < keyBits {
		// Full bucket: push its entries one level down — into a value
		// fork when one hash holds them all. Entries are distinct, so
		// some level below splits them. The fork is new, so it is
		// already ours.
		var f *trieNode
		if shift <= hashBits && sameHash(n.ents) {
			f = a.newValueFork(n.ents[0])
		} else {
			f = a.newFork()
		}
		for _, old := range n.ents {
			k := &f.kids[route(old, f.routes(shift))]
			*k = a.leafWith(*k, 1)
			(*k).ents = append((*k).ents, old)
		}
		n = f
	}
	if n == nil || n.kids == nil {
		n = a.leafWith(n, 1)
		n.ents = append(n.ents, e)
		return n
	}
	if n.ents != nil && n.ents[0]>>32 != e>>32 {
		// Another hash reaches a value fork: a hash fork takes its
		// place and it moves down one level.
		f := a.newFork()
		f.kids[route(n.ents[0], shift)] = n
		n = f
	}
	n = a.ownFork(n)
	at := n.routes(shift)
	k := &n.kids[route(e, at)]
	*k = a.trieInsert(*k, at+trieBits, e)
	return n
}

// trieRemove drops entry e, which must be present, and returns the
// subtree's new root, nil once it is empty.
func (a *rowArena) trieRemove(n *trieNode, shift uint, e uint64) *trieNode {
	if n.kids == nil {
		if len(n.ents) == 1 {
			return nil
		}
		n = a.leafWith(n, 0)
		for i, x := range n.ents {
			if x == e {
				last := len(n.ents) - 1
				n.ents[i] = n.ents[last]
				n.ents = n.ents[:last]
				break
			}
		}
		return n
	}
	n = a.ownFork(n)
	at := n.routes(shift)
	k := &n.kids[route(e, at)]
	*k = a.trieRemove(*k, at+trieBits, e)
	if *k == nil && *n.kids == ([trieFan]*trieNode{}) {
		return nil
	}
	return n
}

// walk calls f for every entry under n.
func (n *trieNode) walk(f func(e uint64)) {
	if n == nil {
		return
	}
	if n.kids == nil {
		for _, e := range n.ents {
			f(e)
		}
		return
	}
	for _, k := range n.kids {
		k.walk(f)
	}
}
