package db

// Incremental checkpoint support: per-relation dirty tracking and the
// segmented snapshot format.
//
// The durable layer checkpoints by writing one small catalog segment
// (scheme + view definitions) plus one data segment per dirty,
// non-empty base relation, then swapping a manifest that lists them.
// Dirty tracking extends the snapshot COW discipline (snapshot.go) to
// the relation: every commit marks the relations its net delta
// touched, so a checkpoint rewrites only those and re-references the
// previous checkpoint's segments for the rest. The flags are guarded
// by Engine.mu like the rest of the commit bookkeeping.
//
// Loading mirrors saving: BeginSegmentedLoad restores the catalog
// (relations created empty, view definitions parsed but deferred),
// LoadSegment streams tuples back in — a relation may span several
// segments, as checkpoints of builds that hash-sharded relations wrote
// them — and CompleteSegmentedLoad materializes the views from the
// restored bases.

import (
	"bufio"
	"fmt"
	"io"

	"mview/internal/expr"
	"mview/internal/tuple"
)

// Segment format magics; the trailing digit is the version, and each
// is the only version read or written.
const (
	catalogMagic = "MVIEWCAT2"
	segmentMagic = "MVIEWSEG1"
)

// TakeCheckpointDirty atomically snapshots the per-relation dirty
// flags and resets them all clean, marking the start of a checkpoint
// interval. The caller must hold the commit fence while calling (so
// the returned flags correspond exactly to the WAL position it
// captures); if the checkpoint later fails, RestoreCheckpointDirty
// merges the taken flags back so the next checkpoint rewrites them.
func (e *Engine) TakeCheckpointDirty() map[string]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	taken := e.ckptDirty
	e.ckptDirty = make(map[string]bool, len(taken))
	for name := range taken {
		e.ckptDirty[name] = false
	}
	return taken
}

// RestoreCheckpointDirty ORs previously taken dirty flags back into the
// live ones after a failed checkpoint, so nothing the failed run was
// responsible for persisting is ever skipped by the next one.
func (e *Engine) RestoreCheckpointDirty(taken map[string]bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, d := range taken {
		if d {
			e.ckptDirty[name] = true
		}
	}
}

// SetCheckpointClean marks rel clean — the durable layer calls it after
// a segmented load that read rel from exactly one segment, so the first
// checkpoint after recovery stays incremental.
func (e *Engine) SetCheckpointClean(rel string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.ckptDirty[rel]; ok {
		e.ckptDirty[rel] = false
	}
}

// MarkAllCheckpointDirty forces the next checkpoint to rewrite every
// relation (benchmarks use it to price full checkpoints).
func (e *Engine) MarkAllCheckpointDirty() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name := range e.ckptDirty {
		e.ckptDirty[name] = true
	}
}

// Relations lists the snapshot's base relation names in scheme order.
func (s *Snapshot) Relations() []string { return s.scheme.Names() }

// RelationLen reports how many tuples a base relation holds (0 for an
// unknown relation), so the checkpoint can skip empty relations.
func (s *Snapshot) RelationLen(rel string) int {
	if r, ok := s.base[rel]; ok {
		return r.Len()
	}
	return 0
}

// WriteCatalog writes the snapshot's catalog segment: the database
// scheme (relation names and attributes, no tuples) and every view
// definition with its configuration. Together with the data segments
// it replaces the monolithic Save stream for checkpoints.
func (s *Snapshot) WriteCatalog(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.str(catalogMagic)
	names := s.scheme.Names()
	w.u32(uint32(len(names)))
	for _, name := range names {
		rs, _ := s.scheme.Rel(name)
		w.str(name)
		attrs := rs.Scheme.Attributes()
		w.u32(uint32(len(attrs)))
		for _, a := range attrs {
			w.str(string(a))
		}
	}
	w.u32(uint32(len(s.viewOrder)))
	for _, name := range s.viewOrder {
		sv := s.views[name]
		writeViewDef(w, name, sv.bound, sv.cfg)
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// WriteSegment writes one data segment: every tuple of one base
// relation. Segments are self-describing (relation name, a part index
// and arity) so recovery can sanity-check the manifest; the part index
// is always 0 (builds that hash-sharded relations numbered their
// shards there).
func (s *Snapshot) WriteSegment(out io.Writer, rel string) error {
	r, ok := s.base[rel]
	if !ok {
		return fmt.Errorf("db: unknown relation %q", rel)
	}
	w := &writer{w: bufio.NewWriter(out)}
	w.str(segmentMagic)
	w.str(rel)
	w.u32(0)
	arity := r.Scheme().Arity()
	w.u32(uint32(arity))
	w.u32(uint32(r.Len()))
	r.Each(func(t tuple.Tuple) {
		for _, v := range t {
			w.i64(v)
		}
	})
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// PendingViews carries the view definitions parsed by
// BeginSegmentedLoad until CompleteSegmentedLoad materializes them
// (views must be created after the base tuples are back).
type PendingViews struct {
	defs []pendingViewDef
}

type pendingViewDef struct {
	view expr.View
	cfg  ViewConfig
}

// BeginSegmentedLoad reads a catalog segment and returns a fresh
// engine with every relation created (empty) plus the parsed view
// definitions. Stream the data segments through LoadSegment, then
// call CompleteSegmentedLoad.
func BeginSegmentedLoad(in io.Reader) (*Engine, *PendingViews, error) {
	r := &reader{r: bufio.NewReader(in)}
	switch magic := r.str(); {
	case r.err != nil:
		return nil, nil, fmt.Errorf("db: reading catalog header: %w", r.err)
	case magic != catalogMagic:
		return nil, nil, fmt.Errorf("db: not an mview catalog segment this build reads (magic %q, want %q)", magic, catalogMagic)
	}
	e := New()
	nRel := r.u32()
	if nRel > maxStr {
		return nil, nil, fmt.Errorf("db: corrupt catalog: %d relations", nRel)
	}
	// Created in one step once all are read: per relation, the scheme
	// clone and snapshot publish of CreateRelation would make a catalog
	// of n relations cost O(n²).
	var defs []relDef
	for i := uint32(0); i < nRel; i++ {
		d, err := readRelation(r)
		if err != nil {
			return nil, nil, err
		}
		defs = append(defs, d)
	}
	if err := e.createRelations(defs); err != nil {
		return nil, nil, err
	}
	nView := r.u32()
	if r.err != nil || nView > maxStr {
		return nil, nil, fmt.Errorf("db: corrupt catalog: %d views", nView)
	}
	// Grown by append: nView is untrusted, and presizing from it would
	// let a four-byte count reserve megabytes before one view is read.
	pending := &PendingViews{}
	for i := uint32(0); i < nView; i++ {
		v, cfg, err := readViewDef(r)
		if err != nil {
			return nil, nil, err
		}
		pending.defs = append(pending.defs, pendingViewDef{view: v, cfg: cfg})
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return e, pending, nil
}

// LoadSegment streams one data segment's tuples back into the named
// relation. Segments add up: loading several for one relation yields
// their union.
func (e *Engine) LoadSegment(in io.Reader) error {
	r := &reader{r: bufio.NewReader(in)}
	if magic := r.str(); r.err != nil || magic != segmentMagic {
		if r.err != nil {
			return fmt.Errorf("db: reading segment header: %w", r.err)
		}
		return fmt.Errorf("db: not an mview data segment (magic %q)", magic)
	}
	rel := r.str()
	r.u32() // part index: informational
	arity := r.u32()
	nTup := r.u32()
	if r.err != nil {
		return fmt.Errorf("db: corrupt segment header for %q: %w", rel, r.err)
	}
	e.mu.Lock()
	inst, ok := e.base[rel]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("db: segment references unknown relation %q", rel)
	}
	if int(arity) != inst.Scheme().Arity() {
		return fmt.Errorf("db: segment arity %d does not match relation %q (%d)", arity, rel, inst.Scheme().Arity())
	}
	for j := uint32(0); j < nTup && r.err == nil; j++ {
		t := make(tuple.Tuple, arity)
		for k := range t {
			t[k] = r.i64()
		}
		if r.err != nil {
			break
		}
		if err := inst.Insert(t); err != nil {
			return err
		}
	}
	if r.err != nil {
		return fmt.Errorf("db: corrupt segment for %q: %w", rel, r.err)
	}
	return nil
}

// CompleteSegmentedLoad materializes the deferred views against the
// restored base relations and publishes the final snapshot. The engine
// is ready for commits afterwards.
func (e *Engine) CompleteSegmentedLoad(pending *PendingViews) error {
	for _, d := range pending.defs {
		if err := e.CreateView(d.view, d.cfg); err != nil {
			return fmt.Errorf("db: restoring view %q: %w", d.view.Name, err)
		}
	}
	e.mu.Lock()
	e.publishLocked()
	e.mu.Unlock()
	return nil
}
