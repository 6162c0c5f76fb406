package db

// Per-version read memo.
//
// A published view version — the *relation.Counted behind a snapView —
// is never written again (copy-on-write, snapshot.go), so what readers
// make of it is computed once per version instead of once per read: the
// rows in sorted order, the output schema, and a slot for the rendered
// JSON body. publishLocked hands a snapView its predecessor's memo when
// the data pointer did not change (a commit that did not touch the
// view, a deferred view whose only change is its backlog) and a fresh,
// empty one when it did; the first reader that needs each part builds
// it under a sync.Once, and publishLocked never does. A memo becomes
// garbage with the last snapshot that references its version, so there
// is nothing to size, evict or switch off.

import (
	"fmt"
	"sync"
	"time"

	"mview/internal/expr"
	"mview/internal/relation"
)

const viewReadsHelp = "View reads by how their version was served: result=memo from an already-built memo, result=render by building (sorting or rendering) part of it."

// viewMemo is one view version's read-side rendering. Every snapView
// that references it has data == memo.data.
type viewMemo struct {
	data  *relation.Counted
	bound *expr.Bound

	rowsOnce sync.Once
	rows     []relation.CountedTuple // sorted
	schema   []string
	err      error

	jsonOnce sync.Once
	json     []byte
}

// load builds the sorted rows and the schema on first use and reports
// whether this call was the one that built them.
func (m *viewMemo) load() (built bool) {
	m.rowsOnce.Do(func() {
		built = true
		m.rows = m.data.Tuples()
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

// Policy reports the view's refresh policy and its commit-time mode.
// The two differ only under RefreshAdaptive, where the scheduler flips
// the mode with the measured write/read balance.
func (v ViewVersion) Policy() (RefreshSpec, RefreshMode) { return v.sv.cfg.When, v.sv.cfg.Mode }

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
