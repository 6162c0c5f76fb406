package relation

// column is the per-handle side column of a Counted relation: int64
// values in 16-value leaves on a spine. A leaf, like a fork, belongs to
// the generation that allocated it, so copying the column is copying
// this header, a set or push after that copies one root-to-leaf path,
// and a container that is never cloned writes in place throughout.
type column struct {
	leaves spine[*columnLeaf]
	n      int32
}

type columnLeaf struct {
	gen  uint64
	vals [spineFan]int64
}

// slot returns a pointer generation gen may write handle h's value
// through; h is at most c.n.
func (c *column) slot(h int32, gen uint64) *int64 {
	p := c.leaves.slot(h>>spineBits, gen)
	if l := *p; l == nil {
		*p = &columnLeaf{gen: gen}
	} else if l.gen != gen {
		*p = &columnLeaf{gen: gen, vals: l.vals}
	}
	return &(*p).vals[h&(spineFan-1)]
}

func (c *column) set(h int32, v int64, gen uint64) { *c.slot(h, gen) = v }

// push appends v as the value of handle c.n.
func (c *column) push(v int64, gen uint64) {
	*c.slot(c.n, gen) = v
	c.n++
}

func (c *column) get(h int32) int64 {
	return c.leaves.get(h >> spineBits).vals[h&(spineFan-1)]
}
