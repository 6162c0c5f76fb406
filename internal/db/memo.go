package db

// Per-version read memo.
//
// A published view version — the *relation.Counted behind a snapView —
// is never written again once a reader holds it (copy-on-write,
// snapshot.go), so what readers make of it is computed once per version
// instead of once per read: the rows in sorted order, the output
// schema, and a slot for the rendered JSON body. publishLocked asks
// nextMemo for each new snapView's memo. A view whose data was not
// written since the last publish keeps its memo. Otherwise the memo is
// new; when the install folded exactly one differential delta onto a
// version whose memo already has its sorted rows, the new memo keeps
// those rows and the delta and builds its own rows by merging the two
// (mergeRows) instead of sorting the whole view. It links only to a
// predecessor that is already built, so a chain is at most one deep
// and an unread version is never retained, and it drops the link once
// it is built. The first reader that needs each part builds it under a
// sync.Once, and publishLocked never does. A memo becomes garbage with
// the last snapshot that references its version, so there is nothing
// to size, evict or switch off.

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/relation"
)

const viewReadsHelp = "View reads by how their version was served: result=memo from an already-built memo, result=render by building (sorting or rendering) part of it."

// viewMemo is one view version's read-side rendering. Every snapView
// that references it has data == memo.data.
type viewMemo struct {
	data  *relation.Counted
	bound *expr.Bound
	// prev and delta, until the rows are built: the predecessor
	// version's sorted rows and the one delta folded onto it to give
	// data (nextMemo).
	prev  []relation.CountedTuple
	delta *diffeval.ViewDelta

	rowsOnce sync.Once
	built    atomic.Bool             // rows, schema and err are set
	rows     []relation.CountedTuple // sorted
	schema   []string
	err      error

	jsonOnce sync.Once
	json     []byte
}

// nextMemo returns the read memo of the version publishLocked is
// publishing for st, whose previous snapView is old (nil for a new
// view): old's memo while data is the same object; a memo that merges
// old's rows with the one delta folded since, when old's rows are
// built; otherwise an empty one. Callers hold the engine's write lock.
func (st *viewState) nextMemo(old *snapView) *viewMemo {
	if old != nil && old.data == st.data {
		if st.written {
			// Written in place: every snapshot that held data was
			// retired unread, so the memo is empty and no reader's,
			// and only its link is stale.
			old.memo.prev, old.memo.delta = nil, nil
		}
		return old.memo
	}
	m := &viewMemo{data: st.data, bound: st.bound}
	// A second install before this publish folds onto the first one's
	// result, not onto old.data, so it cannot link.
	if old != nil && st.folded != nil && st.foldedOnto == old.data {
		if pm := old.memo; pm.built.Load() && pm.err == nil {
			m.prev, m.delta = pm.rows, st.folded
		}
	}
	return m
}

// load builds the sorted rows and the schema on first use and reports
// whether this call was the one that built them.
func (m *viewMemo) load() (built bool) {
	m.rowsOnce.Do(func() {
		built = true
		defer m.built.Store(true)
		ok := false
		if m.prev != nil {
			m.rows, ok = mergeRows(m.prev, m.delta.Rows, m.data.Len())
			m.prev, m.delta = nil, nil
		}
		if !ok {
			m.rows = m.data.Tuples()
		}
		out, err := m.bound.OutScheme()
		if err != nil {
			m.err = err
			return
		}
		attrs := out.Attributes()
		m.schema = make([]string, len(attrs))
		for i, a := range attrs {
			m.schema[i] = string(a)
		}
	})
	return built
}

// mergeRows returns the sorted rows of prev with run's signed counts
// added, prev being the sorted rows of the version the run was folded
// onto: one binary search per changed tuple and one copy of the
// unchanged rows between them. A row whose count reaches zero is
// dropped. The rows share prev's tuples and the run's. It reports
// false, and the caller sorts instead, when the result is not want rows
// long or a count would go negative.
func mergeRows(prev, run []relation.CountedTuple, want int) ([]relation.CountedTuple, bool) {
	out := make([]relation.CountedTuple, 0, want)
	i := 0
	for _, c := range run {
		at, found := slices.BinarySearchFunc(prev[i:], c, relation.ByTuple)
		out = append(out, prev[i:i+at]...)
		i += at
		if found {
			c.Count += prev[i].Count
			c.Tuple = prev[i].Tuple
			i++
		}
		switch {
		case c.Count < 0:
			return nil, false
		case c.Count > 0:
			out = append(out, c)
		}
	}
	out = append(out, prev[i:]...)
	return out, len(out) == want
}

// ViewVersion is one view as of one published snapshot. Every accessor
// answers from that same snapshot, so a caller needing rows, schema and
// policy together gets one version, never a mix of whatever was current
// at each call. Rows, Schema and JSON are shared by every reader of the
// version — their tuples point into immutable snapshot storage — and
// must not be modified.
type ViewVersion struct {
	e  *Engine
	o  *engineObs
	sv *snapView
}

// ReadView resolves a view in the current read snapshot.
func (e *Engine) ReadView(name string) (ViewVersion, error) {
	sv, ok := e.currentSnapshot().views[name]
	if !ok {
		return ViewVersion{}, fmt.Errorf("db: unknown view %q", name)
	}
	return ViewVersion{e: e, o: e.o.Load(), sv: sv}, nil
}

// ViewFresh is ReadView no staler than bound: when the snapshot's
// oldest unapplied change is older, the view is refreshed synchronously
// first (bound 0 therefore always serves fresh contents). A view
// exactly as old as the bound is within contract and served as is.
func (e *Engine) ViewFresh(name string, bound time.Duration) (ViewVersion, error) {
	v, err := e.ReadView(name)
	if err != nil || v.Staleness() <= bound {
		return v, err
	}
	if err := e.RefreshView(name); err != nil {
		return ViewVersion{}, err
	}
	return e.ReadView(name)
}

// Len returns the number of distinct tuples in the version.
func (v ViewVersion) Len() int { return v.sv.data.Len() }

// Policy reports the view's refresh policy and whether commits currently
// defer its maintenance. The two disagree only under RefreshAdaptive,
// where the scheduler flips the direction with the measured write/read
// balance.
func (v ViewVersion) Policy() (spec RefreshSpec, deferred bool) { return v.sv.cfg.When, v.sv.deferred }

// Staleness returns the age of the version's oldest unapplied change
// (0 = no unapplied changes).
func (v ViewVersion) Staleness() time.Duration {
	if v.sv.pendingSince.IsZero() {
		return 0
	}
	return v.e.now().Sub(v.sv.pendingSince)
}

// Rows returns the version's tuples in ascending order, sorted
// once per version and shared by every reader. It counts as a read.
func (v ViewVersion) Rows() []relation.CountedTuple {
	m := v.sv.memo
	v.countRead(m.load())
	return m.rows
}

// Schema returns the attribute names of the version's rows, shared by
// every reader.
func (v ViewVersion) Schema() ([]string, error) {
	m := v.sv.memo
	m.load()
	return m.schema, m.err
}

// JSON returns the version rendered by render, which is called at most
// once per version with the sorted rows and the schema; every caller
// must pass the same pure function. It counts as a read.
func (v ViewVersion) JSON(render func(rows []relation.CountedTuple, schema []string) []byte) ([]byte, error) {
	m := v.sv.memo
	built := m.load()
	if m.err != nil {
		return nil, m.err
	}
	m.jsonOnce.Do(func() {
		built = true
		m.json = render(m.rows, m.schema)
	})
	v.countRead(built)
	return m.json, nil
}

// countRead feeds the adaptive when-policy's read rate and
// mview_view_reads_total: "render" when this read built part of the
// memo, "memo" when the version was already rendered.
func (v ViewVersion) countRead(built bool) {
	if v.sv.reads != nil {
		v.sv.reads.Add(1)
	}
	if v.o != nil {
		if built {
			v.o.viewReadsRender.Inc()
		} else {
			v.o.viewReadsMemo.Inc()
		}
	}
}
