package relation

import "mview/internal/tuple"

const (
	pageBits = 6
	pageRows = 1 << pageBits
)

// rowStore is an arena's row storage: fixed-width rows of int64 in
// append order, addressed by handle, in pages of 64 rows. Full pages
// hang off a spine and are immutable. The page being filled (tail)
// belongs to the generation that allocated its backing array: that
// generation appends to it in place, and any other copies the rows in
// it — at most a page — before appending. Readers of an older
// generation hold their own header and never look past their own
// length, so copying a rowStore is copying this header.
type rowStore struct {
	width   int
	n       int32          // rows stored = next handle
	pages   int32          // full pages
	full    spine[[]int64] // the full pages, in order
	tail    []int64        // rows past the full pages
	tailGen uint64         // generation that allocated tail's backing
}

// newRowStore returns an empty store presized for hint rows.
func newRowStore(width, hint int) rowStore {
	r := rowStore{width: width}
	if hint > 0 {
		r.tail = make([]int64, 0, min(hint, pageRows)*width)
	}
	return r
}

// row returns handle h's values. The full slice expression pins the
// capacity so a stray append on a retained alias cannot clobber the
// next row.
func (r *rowStore) row(h int32) tuple.Tuple {
	page := r.tail
	if h>>pageBits < r.pages {
		page = r.full.get(h >> pageBits)
	}
	off := int(h&(pageRows-1)) * r.width
	return page[off : off+r.width : off+r.width]
}

// add appends the concatenation of p and q as row r.n, on behalf of
// generation gen.
func (r *rowStore) add(gen uint64, p, q []int64) {
	r.n++
	if r.width == 0 {
		return
	}
	if r.tail == nil && r.pages > 0 {
		r.tail, r.tailGen = make([]int64, 0, pageRows*r.width), gen
	} else if r.tailGen != gen {
		// Another generation's backing: clamp so that append copies.
		r.tail, r.tailGen = r.tail[:len(r.tail):len(r.tail)], gen
	}
	r.tail = append(append(r.tail, p...), q...)
	if len(r.tail) == pageRows*r.width {
		*r.full.slot(r.pages, gen) = r.tail
		r.pages++
		r.tail = nil
	}
}

// each calls f for every stored row, live or not, in handle order: a
// straight pass over one page after another.
func (r *rowStore) each(f func(h int32, t tuple.Tuple)) {
	if r.width == 0 {
		for h := int32(0); h < r.n; h++ {
			f(h, nil)
		}
		return
	}
	h := int32(0)
	for i := int32(0); i <= r.pages; i++ {
		page := r.tail
		if i < r.pages {
			page = r.full.get(i)
		}
		for off := 0; off < len(page); off += r.width {
			f(h, page[off:off+r.width:off+r.width])
			h++
		}
	}
}
