package relation

import (
	"math/bits"
	"sync/atomic"
)

// The handle index of a row arena is a persistent (path-copying) hash
// trie: 16-way forks routed by successive 4-bit slices of a row's
// 32-bit hash, ending in bucket leaves of packed hash<<32|handle
// entries. No key is stored — a probe filters a bucket by the stored
// hash and confirms against the arena row itself.
//
// Buckets rather than one entry per slot keep the node count low: a
// write copies one path of at most eight small forks plus one leaf,
// and a batch of writes copies each touched node once, so the number of
// allocations per commit tracks the number of distinct leaves the delta
// lands in.
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
	ents []uint64            // leaf bucket: hash<<32 | handle
}

// leafBox, smallLeafBox and forkBox put a node and its backing array in
// one allocation. A leaf at the last level keeps growing past leafCap
// by plain append (rows whose 32-bit hashes collide outright cannot be
// split apart), at which point the inline array is simply abandoned.
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

// lastGen numbers arena generations; zero is the generation of an arena
// that has never been cloned.
var lastGen atomic.Uint64

func entry(hash uint32, h int32) uint64 { return uint64(hash)<<32 | uint64(uint32(h)) }

func entryHandle(e uint64) int32 { return int32(uint32(e)) }

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

// ownFork returns fork n if a may write to it, else a copy a may write
// to.
func (a *rowArena) ownFork(n *trieNode) *trieNode {
	if n.gen == a.gen {
		return n
	}
	c := a.newFork()
	*c.kids = *n.kids
	return c
}

// trieInsert adds e under n (nil for an empty subtree), whose level
// routes on hash bits [shift, shift+trieBits), and returns the subtree's
// new root.
func (a *rowArena) trieInsert(n *trieNode, shift uint, e uint64) *trieNode {
	if n != nil && n.kids == nil && len(n.ents) >= leafCap && shift < hashBits {
		// Full bucket with hash bits to spare: push its entries one
		// level down. The fork is new, so it is already ours.
		f := a.newFork()
		for _, old := range n.ents {
			k := &f.kids[old>>(32+shift)&(trieFan-1)]
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
	n = a.ownFork(n)
	k := &n.kids[e>>(32+shift)&(trieFan-1)]
	*k = a.trieInsert(*k, shift+trieBits, e)
	return n
}

// trieRemove drops the entry for handle h (which must be present under
// hash) and returns the subtree's new root, nil once it is empty.
func (a *rowArena) trieRemove(n *trieNode, shift uint, hash uint32, h int32) *trieNode {
	if n.kids == nil {
		if len(n.ents) == 1 {
			return nil
		}
		n = a.leafWith(n, 0)
		for i, e := range n.ents {
			if entryHandle(e) == h {
				last := len(n.ents) - 1
				n.ents[i] = n.ents[last]
				n.ents = n.ents[:last]
				break
			}
		}
		return n
	}
	n = a.ownFork(n)
	k := &n.kids[hash>>shift&(trieFan-1)]
	*k = a.trieRemove(*k, shift+trieBits, hash, h)
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
