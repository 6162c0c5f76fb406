package db

// MVCC-lite read snapshots.
//
// The engine publishes an immutable Snapshot — database scheme, base
// relation contents, and every view's materialization and counters —
// at the end of each commit, refresh, and DDL statement, via a single
// atomic pointer swap. Read paths (View, Relation, Query, Relevant,
// Explain, ViewStats) load the pointer and never take the engine
// lock, so read traffic cannot throttle the commit pipeline and a
// reader iterating a result can never observe a concurrent commit.
//
// Publishing is copy-on-write with structural sharing: the snapshot
// references the engine's live objects instead of copying them, and
// the shared flags (Engine.baseShared, viewState.dataShared) make the
// next writer clone an object before mutating it in place. A commit
// that touches two of a hundred views therefore pays two clones; the
// other ninety-eight cost one carried-over pointer each.

import (
	"fmt"
	"sync/atomic"
	"time"

	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/relation"
	"mview/internal/schema"
)

// Snapshot is one immutable, consistent cut of the database: the
// state exactly as of some committed transaction (plus any refreshes
// and DDL). All contained objects are frozen — writers copy before
// mutating — so a Snapshot may be read from any goroutine forever.
type Snapshot struct {
	seq       uint64
	created   time.Time
	scheme    *schema.Database
	base      map[string]*relation.Relation
	views     map[string]*snapView
	viewOrder []string
	// indexed records which base columns carried a persistent hash
	// index at publish time ("rel" → position set), for Explain.
	indexed map[string]map[int]bool
	// shards is the engine's configured hash-shard count, for Explain
	// and the debug endpoints.
	shards int
}

// Seq returns the snapshot's publish sequence number (0 for the empty
// engine's initial snapshot). Two reads returning the same Seq saw
// the identical database state.
func (s *Snapshot) Seq() uint64 { return s.seq }

// snapView is one view's frozen state within a snapshot: definition,
// materialization, and a publish-time copy of the maintenance
// counters (so ViewStats never races with maintenance workers).
type snapView struct {
	name  string
	bound *expr.Bound
	cfg   ViewConfig
	data  *relation.Counted
	stats ViewStats
	// maint is the view's maintainer, shared with the live viewState:
	// it owns the view's §4 checkers behind its own lock, so Relevant
	// needs no engine lock. away is shared too — see routedAway.
	maint *diffeval.Maintainer
	away  *routedAway
	// pendingSince and lastMaint are publish-time copies of the view's
	// staleness clock and most recent maintenance record, read lock-free
	// by Staleness and ExplainAnalyze (trace.go).
	pendingSince time.Time
	lastMaint    maintRecord
	// reads is shared with the live viewState (not a copy): the
	// lock-free read path bumps it so the adaptive when-policy can see
	// the view's read rate.
	reads *atomic.Int64
	// memo renders data for readers (memo.go); it is shared with every
	// other snapView over the same data pointer and with no other.
	memo *viewMemo
}

// publishLocked builds a new snapshot from the engine's current state
// and installs it with one atomic store. Callers hold the write lock.
//
// The snapshot shares the live objects (no deep copy); marking every
// base relation shared and every view's data shared makes the next
// in-place mutation clone first, which is what freezes this snapshot.
// A view whose data, stats, and backlog did not change since the last
// publish (snapDirty unset) reuses its previous snapView wholesale; one
// whose data pointer did not change keeps its previous read memo.
func (e *Engine) publishLocked() {
	o := e.o.Load()
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	prev := e.snap.Load()
	s := &Snapshot{
		created:   time.Now(),
		scheme:    e.scheme,
		base:      make(map[string]*relation.Relation, len(e.base)),
		views:     make(map[string]*snapView, len(e.views)),
		viewOrder: append([]string(nil), e.viewOrder...),
		shards:    e.Shards(),
	}
	if prev != nil {
		s.seq = prev.seq + 1
	}
	for name, r := range e.base {
		s.base[name] = r
		e.baseShared[name] = true
	}
	for _, name := range e.viewOrder {
		st := e.views[name]
		var sv, old *snapView
		if prev != nil {
			old = prev.views[name]
		}
		if !st.snapDirty {
			sv = old
		}
		if sv == nil {
			var memo *viewMemo
			if old != nil && old.data == st.data {
				memo = old.memo
			} else {
				memo = &viewMemo{data: st.data, bound: st.bound}
			}
			sv = &snapView{
				name:         name,
				bound:        st.bound,
				cfg:          st.cfg,
				data:         st.data,
				stats:        st.stats,
				maint:        st.maint,
				away:         st.away,
				pendingSince: st.pendingSince,
				lastMaint:    st.lastMaint,
				reads:        st.reads,
				memo:         memo,
			}
		}
		st.dataShared = true
		st.snapDirty = false
		s.views[name] = sv
	}
	if len(e.indexes) > 0 {
		s.indexed = make(map[string]map[int]bool, len(e.indexes))
		for rel, m := range e.indexes {
			pm := make(map[int]bool, len(m))
			for pos := range m {
				pm[pos] = true
			}
			s.indexed[rel] = pm
		}
	}
	e.snap.Store(s)
	if o != nil {
		o.snapPublish.ObserveDuration(time.Since(t0))
		o.snapAge.Set(0)
	}
}

// currentSnapshot returns the published snapshot, counting the read
// and refreshing the staleness gauge. Never nil: New publishes an
// initial empty snapshot before the engine escapes its constructor.
func (e *Engine) currentSnapshot() *Snapshot {
	s := e.snap.Load()
	if o := e.o.Load(); o != nil {
		o.snapReads.Inc()
		o.snapAge.Set(time.Since(s.created).Seconds())
	}
	return s
}

// CurrentSnapshot returns the engine's published read snapshot. All
// reads against one Snapshot see a single consistent cut of the
// database regardless of concurrent commits.
func (e *Engine) CurrentSnapshot() *Snapshot { return e.currentSnapshot() }

// operandInstances gathers the snapshot's base instances for a bound
// view expression.
func (s *Snapshot) operandInstances(b *expr.Bound) []*relation.Relation {
	insts := make([]*relation.Relation, len(b.Operands))
	for i, op := range b.Operands {
		insts[i] = s.base[op.Rel]
	}
	return insts
}

// ViewCloneLocked returns a deep clone of a view's materialization
// taken under the engine's read lock — the seed's read path, retained
// only as the baseline that BenchmarkSnapshotReads compares the
// lock-free snapshot path against.
func (e *Engine) ViewCloneLocked(name string) (*relation.Counted, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st, ok := e.views[name]
	if !ok {
		return nil, fmt.Errorf("db: unknown view %q", name)
	}
	return st.data.Clone(), nil
}
