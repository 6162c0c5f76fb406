package diffeval

import (
	"fmt"

	"mview/internal/relation"
)

// Shard-parallel maintenance support. When a transaction modifies
// exactly one operand of a view, the truth-table rows are linear in
// that operand's delta (every row joins the delta against old
// instances), so a disjoint partition of the delta by hash shard yields
// disjoint derivation sets. The engine fans one ComputeDeltaPerOperand call
// per shard onto its worker pool and merges the partial results here
// with the §5 counted operators (⊎). Views whose transaction touches
// several operands — or the same relation under several aliases — fall
// back to a single unsharded task, because cross-terms between two
// delta slots would otherwise be computed by no shard or by several.

// EmptyDelta returns a zero-change ViewDelta for the maintained view,
// used when every shard of a transaction's delta is pruned by the §4
// range test.
func (m *Maintainer) EmptyDelta() *ViewDelta {
	return &ViewDelta{
		Inserts: relation.NewCounted(m.deltaPS),
		Deletes: relation.NewCounted(m.deltaPS),
	}
}

// MergeDeltas combines per-shard partial view deltas into the delta of
// the whole transaction: counted inserts and deletes are ⊎-merged, and
// work counters are summed. DeltaInserts/DeltaDeletes are recomputed
// from the merged multisets rather than summed, because a projected
// view tuple may collapse derivations from several shards into one
// distinct tuple. parts must be non-empty.
func MergeDeltas(parts []*ViewDelta) (*ViewDelta, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("diffeval: merging zero shard deltas")
	}
	if len(parts) == 1 {
		d := parts[0]
		d.Stats.DeltaInserts = d.Inserts.Len()
		d.Stats.DeltaDeletes = d.Deletes.Len()
		return d, nil
	}
	merged := &ViewDelta{
		Inserts: parts[0].Inserts.Clone(),
		Deletes: parts[0].Deletes.Clone(),
		Stats:   parts[0].Stats,
	}
	for _, p := range parts[1:] {
		if err := merged.Inserts.Merge(p.Inserts); err != nil {
			return nil, err
		}
		if err := merged.Deletes.Merge(p.Deletes); err != nil {
			return nil, err
		}
		s := &merged.Stats
		if p.Stats.ModifiedOperands > s.ModifiedOperands {
			s.ModifiedOperands = p.Stats.ModifiedOperands
		}
		s.RowsEvaluated += p.Stats.RowsEvaluated
		s.JoinSteps += p.Stats.JoinSteps
		s.IndexProbes += p.Stats.IndexProbes
		s.FilterChecked += p.Stats.FilterChecked
		s.FilteredOut += p.Stats.FilteredOut
	}
	merged.Stats.DeltaInserts = merged.Inserts.Len()
	merged.Stats.DeltaDeletes = merged.Deletes.Len()
	return merged, nil
}
