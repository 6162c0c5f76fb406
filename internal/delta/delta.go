// Package delta represents transactions against base relations and
// computes their net effects.
//
// Following §3 of the paper, a transaction is an indivisible sequence
// of insert and delete operations, possibly touching several base
// relations. Its net effect on a relation r is a pair of sets (i_r,
// d_r) with r, i_r, d_r mutually disjoint such that τ(r) = r ∪ i_r −
// d_r. A tuple inserted and then deleted within the transaction (or
// vice versa) is not represented at all.
package delta

import (
	"fmt"
	"sort"

	"mview/internal/relation"
	"mview/internal/tuple"
)

// Update is the net effect of a transaction on one base relation.
type Update struct {
	Rel     string
	Inserts *relation.Relation // i_r: tuples absent before, present after
	Deletes *relation.Relation // d_r: tuples present before, absent after
}

// IsEmpty reports whether the update changes nothing.
func (u Update) IsEmpty() bool {
	return (u.Inserts == nil || u.Inserts.Len() == 0) && (u.Deletes == nil || u.Deletes.Len() == 0)
}

// Size returns |i_r| + |d_r|.
func (u Update) Size() int {
	n := 0
	if u.Inserts != nil {
		n += u.Inserts.Len()
	}
	if u.Deletes != nil {
		n += u.Deletes.Len()
	}
	return n
}

// Apply mutates r into τ(r) = r ∪ i_r − d_r.
func (u Update) Apply(r *relation.Relation) error {
	if u.Inserts != nil {
		var err error
		u.Inserts.Each(func(t tuple.Tuple) {
			if e := r.Insert(t); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
	}
	if u.Deletes != nil {
		u.Deletes.Each(func(t tuple.Tuple) { r.Delete(t) })
	}
	return nil
}

// Compose combines two successive net updates into one. base is the
// net effect of earlier transactions against some state B0 (so
// base.Inserts ∩ B0 = ∅ and base.Deletes ⊆ B0), and next is the net
// effect of a later transaction against B1 = B0 ∪ base.Inserts −
// base.Deletes. The result is the net effect of both against B0.
//
// Compose is what lets deferred ("snapshot", §6) views accumulate an
// arbitrary number of transactions and still refresh with a single
// differential pass.
func Compose(base, next Update) (Update, error) {
	if base.Rel != next.Rel {
		return Update{}, fmt.Errorf("delta: composing updates for %q and %q", base.Rel, next.Rel)
	}
	if base.Inserts == nil && base.Deletes == nil && next.Inserts == nil && next.Deletes == nil {
		return Update{Rel: base.Rel}, nil
	}
	bi, bd := orEmpty(base.Inserts, base), orEmpty(base.Deletes, base)
	ni, nd := orEmpty(next.Inserts, next), orEmpty(next.Deletes, next)
	if bi == nil {
		bi, bd = orEmpty(nil, next), orEmpty(nil, next)
	}
	if ni == nil {
		ni, nd = orEmpty(nil, base), orEmpty(nil, base)
	}

	// I' = (I − d) ∪ (i − D): earlier inserts not re-deleted, plus new
	// inserts that are genuinely new against B0 (tuples of i that were
	// in D were deleted from B0 earlier, so re-inserting them merely
	// cancels the delete).
	i1, err := Diff2(bi, nd)
	if err != nil {
		return Update{}, err
	}
	i2, err := Diff2(ni, bd)
	if err != nil {
		return Update{}, err
	}
	ins, err := relation.Union(i1, i2)
	if err != nil {
		return Update{}, err
	}

	// D' = (D − i) ∪ (d − I): earlier deletes not re-inserted, plus
	// new deletes of tuples that existed in B0 (deletes of tuples in I
	// merely cancel the earlier insert).
	d1, err := Diff2(bd, ni)
	if err != nil {
		return Update{}, err
	}
	d2, err := Diff2(nd, bi)
	if err != nil {
		return Update{}, err
	}
	del, err := relation.Union(d1, d2)
	if err != nil {
		return Update{}, err
	}
	return Update{Rel: base.Rel, Inserts: ins, Deletes: del}, nil
}

// ComposeInPlace folds next into base in place: the per-tuple form of
// Compose for callers that exclusively own base's relations, such as a
// deferred view's backlog under the engine lock. It costs O(|next|)
// where Compose costs O(|base| + |next|) — the difference between a
// write path that pays for its own delta and one that re-copies an
// ever-growing backlog on every commit. base's nil sets are allocated
// on demand; next is not modified.
//
// Both updates must target the same relation (ComposeInPlace panics
// otherwise): with that invariant every tuple carries the relation's
// scheme, so the per-tuple inserts below cannot fail.
func ComposeInPlace(base *Update, next Update) {
	if base.Rel != next.Rel {
		panic("delta: ComposeInPlace across relations " + base.Rel + " and " + next.Rel)
	}
	if next.Inserts != nil {
		next.Inserts.Each(func(t tuple.Tuple) {
			// Re-inserting a tuple base deleted from B0 cancels the
			// delete (D − i); a genuinely new tuple joins I' (i − D).
			if base.Deletes != nil && base.Deletes.Has(t) {
				base.Deletes.Delete(t)
				return
			}
			if base.Inserts == nil {
				base.Inserts = relation.New(next.Inserts.Scheme())
			}
			_ = base.Inserts.Insert(t)
		})
	}
	if next.Deletes != nil {
		next.Deletes.Each(func(t tuple.Tuple) {
			// Deleting a tuple base inserted cancels the insert (I − d);
			// deleting a B0 tuple joins D' (d − I).
			if base.Inserts != nil && base.Inserts.Has(t) {
				base.Inserts.Delete(t)
				return
			}
			if base.Deletes == nil {
				base.Deletes = relation.New(next.Deletes.Scheme())
			}
			_ = base.Deletes.Insert(t)
		})
	}
}

// ComposeTxs folds an ordered slice of per-transaction update slices
// into one net update per relation, in first-touch order. Each element
// of txs must be the net effect of one transaction against the state
// produced by all earlier elements (exactly what group commit has
// after computing each transaction's Net against the evolving batch
// overlay); the result is the net effect of the whole group against
// the pre-group state.
//
// This is the §6 cancellation step of group commit: a tuple inserted
// by one transaction and deleted by a later one in the same group
// vanishes entirely and never reaches maintenance. Relations whose
// composition cancels to empty are dropped from the result.
//
// Updates touched by only one transaction are returned as-is (not
// cloned); callers must treat the result as frozen, the same contract
// the serial commit path already has with Tx.Net output.
func ComposeTxs(txs [][]Update) ([]Update, error) {
	acc := make(map[string]Update)
	order := make([]string, 0, 4)
	for _, tx := range txs {
		for _, u := range tx {
			prev, seen := acc[u.Rel]
			if !seen {
				acc[u.Rel] = u
				order = append(order, u.Rel)
				continue
			}
			c, err := Compose(prev, u)
			if err != nil {
				return nil, err
			}
			acc[u.Rel] = c
		}
	}
	out := make([]Update, 0, len(order))
	for _, rel := range order {
		if u := acc[rel]; !u.IsEmpty() {
			out = append(out, u)
		}
	}
	return out, nil
}

// orEmpty substitutes an empty relation (with a scheme borrowed from
// the sibling update) for a nil set so Compose can treat all four sets
// uniformly.
func orEmpty(r *relation.Relation, sibling Update) *relation.Relation {
	if r != nil {
		return r
	}
	if sibling.Inserts != nil {
		return relation.New(sibling.Inserts.Scheme())
	}
	if sibling.Deletes != nil {
		return relation.New(sibling.Deletes.Scheme())
	}
	return nil
}

// Diff2 is relation.Diff tolerating nil operands (nil − x = nil is an
// error; x − nil = x).
func Diff2(a, b *relation.Relation) (*relation.Relation, error) {
	if a == nil {
		return nil, fmt.Errorf("delta: nil relation in update composition")
	}
	if b == nil {
		return a.Clone(), nil
	}
	return relation.Diff(a, b)
}

// opKind distinguishes transaction operations.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
)

type op struct {
	kind opKind
	rel  string
	off  int32 // offset into Tx.vals
	n    int32 // arity
}

// Tx is a transaction: an ordered sequence of updates to base
// relations, applied atomically. The zero value is an empty
// transaction.
//
// Recorded tuples are copied into one shared value arena rather than
// cloned individually, so callers may reuse a scratch tuple across
// operations and a transaction of k operations costs O(log k) buffer
// growths, not k allocations.
type Tx struct {
	ops  []op
	vals []int64
}

// tupleAt returns operation i's tuple as a slice into the value arena.
// Valid only once recording has stopped (ops reference the arena by
// offset, so growth during recording cannot invalidate them, but the
// returned slice must not outlive the Tx).
func (tx *Tx) tupleAt(i int) tuple.Tuple {
	o := tx.ops[i]
	return tx.vals[o.off : o.off+o.n : o.off+o.n]
}

// Reserve pre-allocates capacity for nops operations holding nvals
// values in total, so recording a transaction of known size costs two
// allocations.
func (tx *Tx) Reserve(nops, nvals int) {
	if cap(tx.ops)-len(tx.ops) < nops {
		ops := make([]op, len(tx.ops), len(tx.ops)+nops)
		copy(ops, tx.ops)
		tx.ops = ops
	}
	if cap(tx.vals)-len(tx.vals) < nvals {
		vals := make([]int64, len(tx.vals), len(tx.vals)+nvals)
		copy(vals, tx.vals)
		tx.vals = vals
	}
}

// record appends an operation, copying t into the value arena.
func (tx *Tx) record(kind opKind, rel string, t tuple.Tuple) {
	off := int32(len(tx.vals))
	tx.vals = append(tx.vals, t...)
	tx.ops = append(tx.ops, op{kind: kind, rel: rel, off: off, n: int32(len(t))})
}

// Insert appends an insert operation. The tuple is copied; the caller
// may reuse it.
func (tx *Tx) Insert(rel string, t tuple.Tuple) *Tx {
	tx.record(opInsert, rel, t)
	return tx
}

// Delete appends a delete operation. The tuple is copied; the caller
// may reuse it.
func (tx *Tx) Delete(rel string, t tuple.Tuple) *Tx {
	tx.record(opDelete, rel, t)
	return tx
}

// Len returns the number of operations recorded.
func (tx *Tx) Len() int { return len(tx.ops) }

// Relations returns the sorted names of relations the transaction
// touches.
func (tx *Tx) Relations() []string {
	seen := make(map[string]bool)
	for _, o := range tx.ops {
		seen[o.rel] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// Net computes the transaction's net effect per touched relation,
// given the pre-transaction instances. The lookup function must return
// the current instance of a named base relation.
//
// Net validates arities against the instances and guarantees the
// returned updates satisfy the disjointness invariant: i_r ∩ r = ∅,
// d_r ⊆ r, i_r ∩ d_r = ∅.
func (tx *Tx) Net(lookup func(string) (*relation.Relation, bool)) ([]Update, error) {
	// The running net effect is kept in the update relations
	// themselves: an op that undoes an earlier one takes the tuple back
	// out, and an op that restates the pre-transaction state (insert of
	// a present tuple, delete of an absent one) changes nothing.
	type state struct {
		rel *relation.Relation
		u   Update
	}
	states := make(map[string]*state)
	order := make([]*state, 0, 4)
	nops := len(tx.ops)

	for oi, o := range tx.ops {
		st := states[o.rel]
		if st == nil {
			rel, ok := lookup(o.rel)
			if !ok {
				return nil, fmt.Errorf("delta: transaction touches unknown relation %q", o.rel)
			}
			st = &state{rel: rel, u: Update{
				Rel:     o.rel,
				Inserts: relation.NewCap(rel.Scheme(), nops),
				Deletes: relation.NewCap(rel.Scheme(), nops),
			}}
			states[o.rel] = st
			order = append(order, st)
		}
		t := tx.tupleAt(oi)
		if len(t) != st.rel.Scheme().Arity() {
			return nil, fmt.Errorf("delta: tuple %v has arity %d, relation %q has arity %d",
				t, len(t), o.rel, st.rel.Scheme().Arity())
		}
		// undo holds t if an earlier op did the opposite; do receives it
		// if the op changes the pre-transaction state.
		undo, do, changes := st.u.Deletes, st.u.Inserts, !st.rel.Has(t)
		if o.kind != opInsert {
			undo, do, changes = do, undo, !changes
		}
		if undo.Has(t) {
			undo.Delete(t)
		} else if changes {
			if err := do.Insert(t); err != nil {
				return nil, err
			}
		}
	}

	updates := make([]Update, 0, len(order))
	for _, st := range order {
		if !st.u.IsEmpty() {
			updates = append(updates, st.u)
		}
	}
	return updates, nil
}
