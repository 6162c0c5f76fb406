package relation

const (
	spineBits = 4
	spineFan  = 1 << spineBits
)

// spine is a persistent (path-copying) vector of leaves under 16-way
// forks: the page table of an arena's row storage and of a view's counts
// column. Like the arena's trie, every fork carries the generation of
// the arena that allocated it: a generation writes its own forks in
// place and copies any other fork on the way down, so copying a spine is
// copying this header and a write after that copies one root-to-leaf
// path. The spine knows nothing about what a leaf is or who may write
// to it; it only hands out the slot.
type spine[L any] struct {
	root  *spineNode[L]
	shift uint // index bits resolved above the lowest forks
}

type spineNode[L any] struct {
	gen    uint64
	kids   *[spineFan]*spineNode[L] // upper fork
	leaves *[spineFan]L             // lowest fork
}

// spineForkBox and spineTwigBox put a fork and its array in one
// allocation.
type spineForkBox[L any] struct {
	n   spineNode[L]
	arr [spineFan]*spineNode[L]
}

type spineTwigBox[L any] struct {
	n   spineNode[L]
	arr [spineFan]L
}

// ownSpine returns n if generation gen may write to it, else a copy
// (for a nil n, an empty lowest or upper fork) that it may.
func ownSpine[L any](n *spineNode[L], gen uint64, lowest bool) *spineNode[L] {
	if n != nil && n.gen == gen {
		return n
	}
	if lowest {
		b := &spineTwigBox[L]{}
		b.n = spineNode[L]{gen: gen, leaves: &b.arr}
		if n != nil {
			b.arr = *n.leaves
		}
		return &b.n
	}
	b := &spineForkBox[L]{}
	b.n = spineNode[L]{gen: gen, kids: &b.arr}
	if n != nil {
		b.arr = *n.kids
	}
	return &b.n
}

// get returns leaf i, which must have been stored.
func (s *spine[L]) get(i int32) L {
	n := s.root
	for sh := s.shift; sh > 0; sh -= spineBits {
		n = n.kids[i>>sh&(spineFan-1)]
	}
	return n.leaves[i&(spineFan-1)]
}

// slot returns a pointer through which generation gen may read and
// replace leaf i, copying or creating the path to it. Leaves are
// stored densely: i is at most the number stored so far.
func (s *spine[L]) slot(i int32, gen uint64) *L {
	if s.root != nil && int(i) == spineFan<<s.shift {
		// Full: the old root becomes child 0 of a new root.
		r := ownSpine[L](nil, gen, false)
		r.kids[0] = s.root
		s.root = r
		s.shift += spineBits
	}
	s.root = ownSpine(s.root, gen, s.shift == 0)
	n := s.root
	for sh := s.shift; sh > 0; sh -= spineBits {
		k := &n.kids[i>>sh&(spineFan-1)]
		*k = ownSpine(*k, gen, sh == spineBits)
		n = *k
	}
	return &n.leaves[i&(spineFan-1)]
}
