package relation

import "mview/internal/tuple"

const (
	pageBits = 6
	pageRows = 1 << pageBits
)

// rowStore is an arena's row storage: fixed-width rows of int64
// addressed by handle, in pages of 64 rows, handle h being row h%64 of
// page h/64. Full pages hang off a spine; the page being filled by
// appends is the tail. Every page carries the generation that allocated
// its backing: that generation writes it in place — appending to the
// tail, overwriting a reused slot — and any other copies the page
// first, so a write costs at most one page copy. Readers of an older
// generation hold their own header and never look past their own
// length, so copying a rowStore is copying this header.
type rowStore struct {
	width int
	n     int32          // rows stored = next appended handle
	pages int32          // full pages
	full  spine[rowPage] // the full pages, in order
	tail  rowPage        // rows past the full pages
}

// rowPage is one page's rows and the generation that owns their
// backing.
type rowPage struct {
	vals []int64
	gen  uint64
}

// newRowStore returns an empty store presized for hint rows.
func newRowStore(width, hint int) rowStore {
	r := rowStore{width: width}
	if hint > 0 {
		r.tail.vals = make([]int64, 0, min(hint, pageRows)*width)
	}
	return r
}

// row returns handle h's values. The full slice expression pins the
// capacity so a stray append on a retained alias cannot clobber the
// next row.
func (r *rowStore) row(h int32) tuple.Tuple {
	page := r.tail.vals
	if h>>pageBits < r.pages {
		page = r.full.get(h >> pageBits).vals
	}
	off := int(h&(pageRows-1)) * r.width
	return page[off : off+r.width : off+r.width]
}

// add appends t as row r.n, on behalf of generation gen.
func (r *rowStore) add(gen uint64, t []int64) {
	r.n++
	if r.width == 0 {
		return
	}
	if r.tail.vals == nil && r.pages > 0 {
		r.tail = rowPage{make([]int64, 0, pageRows*r.width), gen}
	} else if r.tail.gen != gen {
		// Another generation's backing: clamp so that append copies.
		r.tail = rowPage{r.tail.vals[:len(r.tail.vals):len(r.tail.vals)], gen}
	}
	r.tail.vals = append(r.tail.vals, t...)
	if len(r.tail.vals) == pageRows*r.width {
		*r.full.slot(r.pages, gen) = r.tail
		r.pages++
		r.tail = rowPage{}
	}
}

// set overwrites stored row h with t on behalf of generation gen,
// copying h's page first unless gen owns it.
func (r *rowStore) set(h int32, gen uint64, t []int64) {
	if r.width == 0 {
		return
	}
	p := &r.tail
	if h>>pageBits < r.pages {
		p = r.full.slot(h>>pageBits, gen)
	}
	if p.gen != gen {
		vals := make([]int64, len(p.vals), cap(p.vals))
		copy(vals, p.vals)
		*p = rowPage{vals, gen}
	}
	off := int(h&(pageRows-1)) * r.width
	copy(p.vals[off:off+r.width], t)
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
		page := r.tail.vals
		if i < r.pages {
			page = r.full.get(i).vals
		}
		for off := 0; off < len(page); off += r.width {
			f(h, page[off:off+r.width:off+r.width])
			h++
		}
	}
}
