package db

// MVCC-lite read snapshots.
//
// The engine publishes an immutable Snapshot — database scheme, base
// relation contents, and every view's materialization and counters —
// at the end of each commit, refresh, and DDL statement, via a single
// atomic pointer swap. Read paths (View, Relation, Query, Relevant,
// Explain, ViewStats) load the pointer through currentSnapshot and do
// not take the engine lock, so read traffic cannot throttle the commit
// pipeline and a reader iterating a result can never observe a
// concurrent commit.
//
// Publishing is copy-on-write with structural sharing, and only what a
// reader pinned is copied. The snapshot references the engine's live
// objects instead of copying them, and the shared flags
// (Engine.baseShared, viewState.dataShared) make the next writer clone
// an object before mutating it in place. A snapshot starts open; the
// first reader to load it pins it (currentSnapshot), and the next
// install retires it if no reader did (retireLocked). Retiring hands
// back to the writer exactly the objects that snapshot's publish newly
// marked shared, so a commit no reader observed writes its bases and
// views in place, while a pinned snapshot keeps every object it
// references marked until a clone replaces it: no reader's version is
// ever written, and an object is copied at most once per pinned
// snapshot. A commit that touches two of a hundred views pays at most
// two clones; the other ninety-eight cost one carried-over pointer
// each.

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/relation"
	"mview/internal/schema"
)

// Snapshot is one immutable, consistent cut of the database: the
// state exactly as of some committed transaction (plus any refreshes
// and DDL). Once a reader holds it (every accessor pins it), all
// contained objects are frozen — writers copy before mutating — so it
// may be read from any goroutine forever.
type Snapshot struct {
	// state is snapOpen until a reader pins it or an install retires
	// it; the two are exclusive and final.
	state     atomic.Uint32
	seq       uint64
	created   time.Time
	scheme    *schema.Database
	base      map[string]*relation.Relation
	views     map[string]*snapView
	viewOrder []string
}

// Snapshot states. Readers move a snapshot from open to pinned, the
// writer (under the engine lock) from open to retired.
const (
	snapOpen    uint32 = iota // published; no reader holds it yet
	snapPinned                // a reader holds it: its objects stay frozen
	snapRetired               // superseded unread: an install writes it in place
)

// pin marks s as held by a reader, and reports false when s was
// retired first.
func (s *Snapshot) pin() bool {
	for {
		switch s.state.Load() {
		case snapPinned:
			return true
		case snapRetired:
			return false
		}
		if s.state.CompareAndSwap(snapOpen, snapPinned) {
			return true
		}
	}
}

// Seq returns the snapshot's publish sequence number (0 for the empty
// engine's initial snapshot). Two reads returning the same Seq saw
// the identical database state.
func (s *Snapshot) Seq() uint64 { return s.seq }

// snapView is one view's frozen state within a snapshot: definition,
// materialization, and a publish-time copy of the maintenance
// counters (so ViewStats never races with a commit in progress).
type snapView struct {
	name  string
	bound *expr.Bound
	cfg   ViewConfig
	data  *relation.Counted
	stats ViewStats
	// deferred is the view's commit-time direction at publish (see
	// viewState.deferred).
	deferred bool
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
// in-place mutation clone first, which is what freezes this snapshot
// once a reader pins it. The objects this publish newly marks are
// recorded (e.fresh) for retireLocked to hand back if none does. A view
// whose data, stats, and backlog did not change since the last publish
// (snapDirty unset) reuses its previous snapView wholesale; the others
// get their read memo from nextMemo.
func (e *Engine) publishLocked() {
	o := e.o.Load()
	var t0 time.Time
	if o != nil {
		t0 = time.Now()
	}
	prev := e.snap.Load()
	s := &Snapshot{
		created: time.Now(),
		scheme:  e.scheme,
		views:   make(map[string]*snapView, len(e.views)),
	}
	// The base map and view order are carried over from the previous
	// snapshot while they are unchanged, as they are across commits
	// that write in place.
	if prev != nil {
		s.seq = prev.seq + 1
		s.base, s.viewOrder = prev.base, prev.viewOrder
	}
	if !maps.Equal(s.base, e.base) {
		s.base = maps.Clone(e.base)
	}
	if !slices.Equal(s.viewOrder, e.viewOrder) {
		s.viewOrder = slices.Clone(e.viewOrder)
	}
	e.fresh.bases, e.fresh.views = e.fresh.bases[:0], e.fresh.views[:0]
	for name := range e.base {
		if !e.baseShared[name] {
			e.baseShared[name] = true
			e.fresh.bases = append(e.fresh.bases, name)
		}
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
			sv = &snapView{
				name:         name,
				bound:        st.bound,
				cfg:          st.cfg,
				deferred:     st.deferred,
				data:         st.data,
				stats:        st.stats,
				maint:        st.maint,
				away:         st.away,
				pendingSince: st.pendingSince,
				lastMaint:    st.lastMaint,
				reads:        st.reads,
				memo:         st.nextMemo(old),
			}
		}
		st.written, st.folded, st.foldedOnto = false, nil, nil
		if !st.dataShared {
			st.dataShared = true
			e.fresh.views = append(e.fresh.views, st)
		}
		st.snapDirty = false
		s.views[name] = sv
	}
	e.snap.Store(s)
	if o != nil {
		o.snapPublish.ObserveDuration(time.Since(t0))
		o.snapAge.Set(0)
	}
}

// retireLocked retires the published snapshot unless a reader has
// pinned it, and on success un-marks exactly the objects its publish
// newly marked shared, so the caller writes them in place. Only an
// install calls it — after validate and the log, where nothing can fail
// — and its publish follows under the same hold of the write lock,
// which bounds how long a reader that loads the retired snapshot waits
// (currentSnapshot). Callers hold the write lock.
func (e *Engine) retireLocked() {
	if !e.snap.Load().state.CompareAndSwap(snapOpen, snapRetired) {
		return
	}
	if e.retireHook != nil {
		e.retireHook()
	}
	for _, name := range e.fresh.bases {
		e.baseShared[name] = false
	}
	for _, st := range e.fresh.views {
		st.dataShared = false
	}
	e.fresh.bases, e.fresh.views = e.fresh.bases[:0], e.fresh.views[:0]
}

// currentSnapshot returns the published snapshot, pinned, counting the
// read and refreshing the staleness gauge. It is the one load of e.snap
// every reader goes through. A reader that loads a snapshot an install
// has just retired waits on the engine lock for the publish that
// follows and pins that one, so callers must not hold the engine lock
// (none does: writers read their own live state, not a snapshot).
// Never nil: New publishes an initial empty snapshot before the engine
// escapes its constructor.
func (e *Engine) currentSnapshot() *Snapshot {
	s := e.snap.Load()
	if !s.pin() {
		e.mu.RLock()
		s = e.snap.Load()
		s.pin() // cannot fail: only the write lock's holder retires
		e.mu.RUnlock()
	}
	if o := e.o.Load(); o != nil {
		o.snapReads.Inc()
		o.snapAge.Set(time.Since(s.created).Seconds())
	}
	return s
}

// SnapshotAge reports the age of the published read snapshot — how
// long ago the last commit, refresh, or DDL statement published. It
// reads only the publish time, so it does not pin.
func (e *Engine) SnapshotAge() time.Duration {
	return time.Since(e.snap.Load().created)
}

// CurrentSnapshot returns the engine's published read snapshot. All
// reads against one Snapshot see a single consistent cut of the
// database regardless of concurrent commits.
func (e *Engine) CurrentSnapshot() *Snapshot { return e.currentSnapshot() }

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
