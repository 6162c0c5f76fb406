package irrelevance

import (
	"mview/internal/pred"
	"mview/internal/satgraph"
	"mview/internal/tuple"
)

// Shard pruning (§4 applied to a key interval instead of a single
// tuple). When the engine splits a transaction's delta by hash shard it
// knows, for each shard, the observed [lo, hi] range of the shard-key
// attribute over that shard's tuples. If the view condition conjoined
// with key ∈ [lo, hi] is unsatisfiable, then by Theorem 4.1 every
// tuple of the sub-delta is irrelevant — substituting a concrete tuple
// only adds constraints to an already-unsatisfiable system — and the
// whole shard task is skipped before any tuple is scanned.
//
// Unlike the per-tuple path, the interval test cannot split the
// conjunct into invariant and ground parts: the key is bounded, not
// fixed. Each conjunct is therefore normalized in full into its own
// prepared closure (built once per checker, on first use), with every
// attribute of the checked operand registered so interval bounds on any
// of them probe it as variant constraints. The relevance index
// (index.go) reads its per-attribute hulls off the same closures.

// The saturation-free zone. satgraph saturates path weights at ±Inf
// and substitution saturates folded constants at the int64 bounds, so
// near those bounds Relevant and a closure bound may each err on the
// safe side in different places. They cannot disagree where nothing
// saturates: a conjunct of fewer than exactNodes variables whose
// normalized constants stay within ±exactLimit has every closure
// distance within ±2^56, and a probe adds at most two tuple values
// within ±valueLimit to one such distance — below satgraph.Inf (2^61).
// The relevance index prunes only inside the zone.
const (
	exactLimit = satgraph.Inf >> 13 // 2^48
	exactNodes = 1 << 8
	valueLimit = satgraph.Inf >> 2 // 2^59
)

// fullPrep holds, per conjunct, the closure of all the conjunct's
// atoms over its own variables plus the operand's attributes.
type fullPrep struct {
	preps []*satgraph.Prepared
	// exact[i] reports that conjunct i stays inside the saturation-free
	// zone (see exactLimit); only then may its bounds prune.
	exact []bool
	// conservative marks a condition that could not be normalized; the
	// range test then reports every interval relevant.
	conservative bool
}

// RangeRelevant reports whether some tuple whose shard-key attribute
// (position pos of the checked operand's scheme) lies in [lo, hi]
// could be relevant to the view. A false result proves the whole key
// interval irrelevant in every database state. Errors never make an
// interval irrelevant; callers may treat an error as "relevant".
func (c *Checker) RangeRelevant(pos int, lo, hi tuple.Value) (bool, error) {
	if c.conservative {
		return true, nil
	}
	q := c.bound.Operands[c.opIdx].QScheme
	if pos < 0 || pos >= q.Arity() {
		return true, nil
	}
	fp := c.fullPrepared()
	if fp.conservative {
		return true, nil
	}
	key := pred.Var(q.Attr(pos))
	variant := []pred.Constraint{
		{X: key, Y: pred.ZeroVar, C: hi},  // key ≤ hi
		{X: pred.ZeroVar, Y: key, C: -lo}, // key ≥ lo
	}
	for _, prep := range fp.preps {
		sat, err := prep.SatisfiableWith(variant)
		if err != nil {
			return true, err
		}
		if sat {
			return true, nil
		}
	}
	return false, nil
}

// fullPrepared returns the per-conjunct full closures, building them
// on first use.
func (c *Checker) fullPrepared() *fullPrep {
	c.fullOnce.Do(func() { c.full = c.buildFullPrep() })
	return c.full
}

func (c *Checker) buildFullPrep() *fullPrep {
	q := c.bound.Operands[c.opIdx].QScheme
	fp := &fullPrep{}
	for _, conj := range c.where.Conjuncts {
		cons, err := pred.NormalizeConjunction(conj)
		if err != nil {
			return &fullPrep{conservative: true}
		}
		vars := append([]pred.Var(nil), conj.Vars()...)
		for i := 0; i < q.Arity(); i++ {
			vars = append(vars, pred.Var(q.Attr(i)))
		}
		prep, err := satgraph.Prepare(cons, vars)
		if err != nil {
			return &fullPrep{conservative: true}
		}
		exact := len(vars) < exactNodes
		for _, cc := range cons {
			if cc.C > exactLimit || cc.C < -exactLimit {
				exact = false
			}
		}
		fp.preps = append(fp.preps, prep)
		fp.exact = append(fp.exact, exact)
	}
	return fp
}
