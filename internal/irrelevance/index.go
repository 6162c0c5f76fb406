package irrelevance

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"mview/internal/delta"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/tuple"
)

// Cross-view relevance index (§4 applied across views). With V
// filtered views over one base relation, Algorithm 4.1 run per view
// costs V checks per update tuple even when — the alerter setting of
// §1–2 — almost none of them fire. The index turns that around: it is
// built once over every (view, operand) checker reading the relation,
// one tuple is stabbed against it once, and only the checkers it
// returns run the full Theorem 4.1 test.
//
// What is indexed: for every conjunct of every checker, the tightest
// constant interval the conjunct implies on each attribute position
// t[p] of the operand, read off the conjunct's full closure (the one
// RangeRelevant probes). A tuple can only satisfy C(t, Y2) for a
// conjunct if every t[p] lies in that conjunct's interval — the
// interval is a consequence of the conjunct, so it is a necessary
// condition and pruning by it is sound by construction. Per bounded
// position the interval endpoints are laid out as sorted breakpoints,
// each elementary interval between two breakpoints carrying the bitset
// of conjuncts whose hull covers it; conjuncts unbounded on that
// position are set in every interval. One lookup is a binary search
// per bounded position and an AND of the bitsets found.
//
// What is always a candidate: a conservative checker (≠ beyond
// NELimit), a conjunct with no constant bound on any position, and a
// conjunct or tuple outside the saturation-free zone (range.go) —
// there the closure and the per-tuple probe may round differently, so
// the index abstains rather than risk pruning a tuple Relevant accepts.

// Index routes the update tuples of one base relation to the checkers
// they may be relevant to. It is immutable after NewIndex and safe for
// concurrent use.
type Index struct {
	checkers []*Checker
	arity    int
	// One cell per indexed conjunct; owner maps it back to its checker.
	// Cells of one checker are adjacent, so owners come out sorted.
	owner []int32
	words int // bitset width in uint64s
	dims  []indexDim
	// every is the bitset of all cells: the lookup result when no
	// position is bounded by anything.
	every []uint64

	scratch sync.Pool // *routeScratch
}

// indexDim is one attribute position some cell is bounded on.
type indexDim struct {
	pos int
	// cuts are the sorted breakpoints; elementary interval j is
	// [cuts[j-1], cuts[j]), open-ended at both extremes.
	cuts []int64
	// rows holds len(cuts)+1 bitsets of Index.words words: row j is the
	// cells whose hull on pos covers elementary interval j.
	rows []uint64
}

// hull is the constant interval one cell implies on one position.
type hull struct {
	cell, pos    int
	lo, hi       int64
	hasLo, hasHi bool
}

// NewIndex builds the relevance index over checkers, which must all
// check operands over the same base relation. Route's results name a
// checker by its position in the slice.
func NewIndex(checkers []*Checker) (*Index, error) {
	ix := &Index{checkers: checkers}
	if len(checkers) == 0 {
		return ix, nil
	}
	ix.arity = checkers[0].bound.Operands[checkers[0].opIdx].QScheme.Arity()
	byPos := make([][]hull, ix.arity)
	for ci, c := range checkers {
		q := c.bound.Operands[c.opIdx].QScheme
		if q.Arity() != ix.arity {
			return nil, fmt.Errorf("irrelevance: index over operands of arity %d and %d", ix.arity, q.Arity())
		}
		hulls, always := c.hulls()
		if always {
			ix.owner = append(ix.owner, int32(ci))
			continue
		}
		for _, hs := range hulls {
			cell := len(ix.owner)
			ix.owner = append(ix.owner, int32(ci))
			for _, h := range hs {
				h.cell = cell
				byPos[h.pos] = append(byPos[h.pos], h)
			}
		}
	}
	ix.words = (len(ix.owner) + 63) / 64
	ix.every = make([]uint64, ix.words)
	for cell := range ix.owner {
		ix.every[cell/64] |= 1 << (cell % 64)
	}
	for pos, hs := range byPos {
		if len(hs) > 0 {
			ix.dims = append(ix.dims, ix.buildDim(pos, hs))
		}
	}
	return ix, nil
}

// hulls returns, per satisfiable conjunct, the constant intervals the
// conjunct implies on the operand's attribute positions. always
// reports that the checker must be a candidate for every tuple: it is
// conservative, or some conjunct is unbounded or outside the
// saturation-free zone.
func (c *Checker) hulls() (out [][]hull, always bool) {
	if c.conservative {
		return nil, true
	}
	fp := c.fullPrepared()
	if fp.conservative {
		return nil, true
	}
	q := c.bound.Operands[c.opIdx].QScheme
	for i, prep := range fp.preps {
		if !fp.exact[i] {
			return nil, true
		}
		if prep.InvariantUnsatisfiable() {
			continue // the conjunct holds for no tuple at all
		}
		var hs []hull
		for pos := 0; pos < q.Arity(); pos++ {
			lo, hi, hasLo, hasHi := prep.Bounds(pred.Var(q.Attr(pos)))
			if hasLo || hasHi {
				hs = append(hs, hull{pos: pos, lo: lo, hi: hi, hasLo: hasLo, hasHi: hasHi})
			}
		}
		if len(hs) == 0 {
			return nil, true
		}
		out = append(out, hs)
	}
	return out, false
}

func (ix *Index) buildDim(pos int, hs []hull) indexDim {
	d := indexDim{pos: pos}
	for _, h := range hs {
		if h.hasLo {
			d.cuts = append(d.cuts, h.lo)
		}
		if h.hasHi {
			d.cuts = append(d.cuts, h.hi+1) // exact zone: far from overflow
		}
	}
	sort.Slice(d.cuts, func(i, j int) bool { return d.cuts[i] < d.cuts[j] })
	n := 0
	for i, v := range d.cuts {
		if i == 0 || v != d.cuts[n-1] {
			d.cuts[n] = v
			n++
		}
	}
	d.cuts = d.cuts[:n]

	// Cells not bounded on pos cover every interval.
	open := append([]uint64(nil), ix.every...)
	for _, h := range hs {
		open[h.cell/64] &^= 1 << (h.cell % 64)
	}
	d.rows = make([]uint64, (n+1)*ix.words)
	for j := 0; j <= n; j++ {
		copy(d.rows[j*ix.words:], open)
	}
	for _, h := range hs {
		first, last := 0, n
		if h.hasLo {
			first = d.interval(h.lo)
		}
		if h.hasHi {
			last = d.interval(h.hi)
		}
		for j := first; j <= last; j++ {
			d.rows[j*ix.words+h.cell/64] |= 1 << (h.cell % 64)
		}
	}
	return d
}

// interval returns the elementary interval holding x: the number of
// breakpoints ≤ x.
func (d *indexDim) interval(x int64) int {
	lo, hi := 0, len(d.cuts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.cuts[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// candidates appends to dst, in increasing order, the checkers t may
// be relevant to — a superset of those whose Relevant(t) is true — and
// returns the extended slice. t must have the indexed operands' arity;
// acc is scratch of ix.words words.
func (ix *Index) candidates(t tuple.Tuple, acc []uint64, dst []int) []int {
	for _, v := range t {
		if v > valueLimit || v < -valueLimit {
			for ci := range ix.checkers {
				dst = append(dst, ci)
			}
			return dst
		}
	}
	rows := ix.every
	for i := range ix.dims {
		d := &ix.dims[i]
		j := d.interval(t[d.pos])
		row := d.rows[j*ix.words : (j+1)*ix.words]
		if i == 0 {
			rows = row
			continue
		}
		for w := range acc {
			acc[w] = rows[w] & row[w]
		}
		rows = acc
	}
	last := int32(-1)
	for w, word := range rows {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if ci := ix.owner[w*64+b]; ci != last {
				dst = append(dst, int(ci))
				last = ci
			}
		}
	}
	return dst
}

// routeScratch is Route's per-call working memory, pooled on the index
// so a commit's routing allocates only for the tuples that get through.
type routeScratch struct {
	acc  []uint64 // candidate bitset accumulator
	cand []int    // one tuple's candidates
	slot []int32  // checker → 1 + its position in the result, 0 = none yet
}

func (ix *Index) getScratch() *routeScratch {
	if sc, ok := ix.scratch.Get().(*routeScratch); ok {
		return sc
	}
	return &routeScratch{acc: make([]uint64, ix.words), slot: make([]int32, len(ix.checkers))}
}

// Routed is the part of a net update that is relevant to one checker.
type Routed struct {
	Checker int          // position in the slice NewIndex was given
	Update  delta.Update // never empty; sides nothing reached are nil
}

// Route filters u once for all indexed checkers: every tuple is
// stabbed against the index, the full Theorem 4.1 test runs only on
// its candidates, and the tuples found relevant are collected per
// checker. Checkers that nothing reached do not appear in the result —
// for them every tuple of u is a discard verdict, reached without
// running their test. skip, when non-nil, marks checkers (by position)
// to leave out altogether. checks is the number of full tests run.
func (ix *Index) Route(u delta.Update, skip []bool) (out []Routed, checks int, err error) {
	if len(ix.checkers) == 0 {
		return nil, 0, nil
	}
	sc := ix.getScratch()
	side := func(r *relation.Relation, insert bool) error {
		if r == nil || r.Len() == 0 {
			return nil
		}
		if r.Scheme().Arity() != ix.arity {
			return fmt.Errorf("irrelevance: routing %q tuples of arity %d through an index of arity %d",
				u.Rel, r.Scheme().Arity(), ix.arity)
		}
		var err error
		r.Each(func(t tuple.Tuple) {
			if err != nil {
				return
			}
			sc.cand = ix.candidates(t, sc.acc, sc.cand[:0])
			for _, ci := range sc.cand {
				if skip != nil && skip[ci] {
					continue
				}
				checks++
				var relevant bool
				if relevant, err = ix.checkers[ci].Relevant(t); err != nil {
					return
				}
				if !relevant {
					continue
				}
				if sc.slot[ci] == 0 {
					out = append(out, Routed{Checker: ci, Update: delta.Update{Rel: u.Rel}})
					sc.slot[ci] = int32(len(out))
				}
				dst := &out[sc.slot[ci]-1].Update.Deletes
				if insert {
					dst = &out[sc.slot[ci]-1].Update.Inserts
				}
				if *dst == nil {
					*dst = relation.New(r.Scheme())
				}
				if err = (*dst).Insert(t); err != nil {
					return
				}
			}
		})
		return err
	}
	err = side(u.Inserts, true)
	if err == nil {
		err = side(u.Deletes, false)
	}
	for _, r := range out {
		sc.slot[r.Checker] = 0
	}
	ix.scratch.Put(sc)
	if err != nil {
		return nil, checks, err
	}
	return out, checks, nil
}
