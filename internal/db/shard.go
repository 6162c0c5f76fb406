package db

// Shard-parallel maintenance (the commit pipeline's phase-1 fan-out).
//
// With WithShards(n), every base relation is split into n hash shards
// keyed on its first attribute (internal/relation). At commit, a view
// whose composed delta modifies exactly one operand fans out one
// maintenance task per non-empty shard of that operand's delta instead
// of one task per view: the §5 differential operators are linear in
// the delta when a single operand changed, so the disjoint per-shard
// sub-deltas yield disjoint derivations and diffeval.MergeDeltas
// ⊎-merges the partial results exactly. A shard is pruned when the §4
// test leaves it nothing to do: for a filtered view, when none of its
// tuples survived the commit's routing (route.go); for an unfiltered
// one, when the checker finds the shard's observed key range
// unsatisfiable (irrelevance.RangeRelevant) — no tuple is scanned.
//
// Views whose transaction touches several operands — or the same
// relation under several aliases (self-joins) — fall back to a single
// unsharded task: cross-terms between two delta slots would otherwise
// be computed by no shard or by several. Deferred refreshes and the
// per-transaction subscriber deltas inside a group also stay
// unsharded; both are off the phase-1 critical path.

import (
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
)

// WithShards partitions every base relation into n hash shards on its
// first attribute and fans per-shard maintenance tasks onto the worker
// pool. n <= 1 keeps relations monolithic. Shard count is engine
// configuration, not persisted state: Save output is
// shard-independent, and Load re-shards to the configured count.
func WithShards(n int) Option {
	return func(e *Engine) {
		if n > 1 {
			e.shards = n
		}
	}
}

// Shards reports the configured shard count (1 when unsharded).
func (e *Engine) Shards() int {
	if e.shards <= 1 {
		return 1
	}
	return e.shards
}

// shardableOperand returns the index of the single operand eligible
// for shard fan-out, or -1 when the view must run as one task: the
// engine is unsharded, several operand slots are modified (including a
// touched self-join), or the touched relation is monolithic.
func (e *Engine) shardableOperand(st *viewState, composedTouched map[string]bool) int {
	if e.shards <= 1 {
		return -1
	}
	idx := -1
	for i, op := range st.bound.Operands {
		if !composedTouched[op.Rel] {
			continue
		}
		if idx != -1 {
			return -1
		}
		idx = i
	}
	if idx >= 0 && e.base[st.bound.Operands[idx].Rel].Shards() <= 1 {
		return -1
	}
	return idx
}

// commitTask is one unit of phase-1 work on the pool: either a whole
// view's delta computation (part < 0) or one shard's sub-delta for a
// fanned-out view. Each task owns its result slots, so the pool
// writes race-free; the lock holder folds tasks back into their views
// after the pool drains.
type commitTask struct {
	w     *refreshed
	perOp []delta.Update // each operand's net update for this task
	part  int            // index into w.parts; -1 = unsharded task, result to w.d
	clone bool           // this task also pre-clones the view's COW copy

	d    *diffeval.ViewDelta
	err  error
	dur  time.Duration
	wait time.Duration
}

// splitComposed splits the composed update of rel by shard, once per
// relation per batch (memoized in splits).
func (e *Engine) splitComposed(rel string, composed []delta.Update, splits map[string][]delta.ShardUpdate) []delta.ShardUpdate {
	sus, ok := splits[rel]
	if !ok {
		base := e.base[rel]
		for _, u := range composed {
			if u.Rel == rel {
				sus = delta.SplitUpdate(u, base.ShardKey(), base.Shards())
				break
			}
		}
		splits[rel] = sus
	}
	return sus
}

// planShardTasks expands one differential view into its phase-1 tasks,
// splitting its modified operand's update by shard and pruning the
// shards the §4 test empties. It appends to tasks and returns the
// extended slice. Pruning is conservative: a checker error keeps the
// shard.
func (e *Engine) planShardTasks(w *refreshed, composed []delta.Update,
	composedTouched map[string]bool, splits map[string][]delta.ShardUpdate,
	tasks []*commitTask) []*commitTask {
	opIdx := e.shardableOperand(w.st, composedTouched)
	if opIdx < 0 {
		return append(tasks, &commitTask{w: w, perOp: w.perOp, part: -1, clone: true})
	}
	sus := e.splitComposed(w.st.bound.Operands[opIdx].Rel, composed, splits)
	if w.routed {
		// The update is already down to its relevant tuples: the shards
		// that lost all of theirs to routing are the pruned ones.
		base := e.base[w.st.bound.Operands[opIdx].Rel]
		routed := delta.SplitUpdate(w.perOp[opIdx], base.ShardKey(), base.Shards())
		w.shardsPruned = len(sus) - len(routed)
		sus = routed
	}
	for _, su := range sus {
		if !w.routed {
			if ck, err := w.st.maint.Checker(opIdx); err == nil {
				if relevant, err := ck.RangeRelevant(su.KeyPos, su.KeyLo, su.KeyHi); err == nil && !relevant {
					w.shardsPruned++
					continue
				}
			}
		}
		perOp := make([]delta.Update, len(w.perOp))
		perOp[opIdx] = su.Update
		w.parts = append(w.parts, nil)
		tasks = append(tasks, &commitTask{
			w:     w,
			perOp: perOp,
			part:  len(w.parts) - 1,
			clone: len(w.parts) == 1,
		})
	}
	w.shardTasks = len(w.parts)
	if len(w.parts) == 0 {
		// Every shard pruned (or the composed update was empty): the §4
		// range test proved the whole delta irrelevant, so the view's
		// delta is empty without computing anything. The install path
		// still counts the refresh, matching the unsharded pipeline.
		w.d = w.st.maint.EmptyDelta()
	}
	return tasks
}
