package db

// Incremental checkpoint support: per-shard dirty tracking and the
// segmented snapshot format.
//
// The durable layer checkpoints by writing one small catalog segment
// (scheme + view definitions) plus one data segment per dirty,
// non-empty shard of each base relation, then swapping a manifest that
// lists them. Dirty tracking extends the snapshot COW discipline
// (snapshot.go) to per-shard granularity: every commit marks exactly
// the shards its net delta touched, so a checkpoint rewrites only
// those and re-references the previous checkpoint's segments for the
// rest. The bitmaps are guarded by Engine.mu like the rest of the
// commit bookkeeping.
//
// Loading mirrors saving: BeginSegmentedLoad restores the catalog
// (relations created empty, view definitions parsed but deferred),
// LoadShardSegment streams tuples back in — shard assignment is
// recomputed, so the configured shard count may differ from the one
// the segments were written under — and CompleteSegmentedLoad
// materializes the views from the restored bases.

import (
	"bufio"
	"fmt"
	"io"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// Segment format magics; the trailing digit is the version, and each
// is the only version read or written.
const (
	catalogMagic = "MVIEWCAT2"
	segmentMagic = "MVIEWSEG1"
)

// initCheckpointDirtyLocked sizes a fresh all-dirty bitmap for a newly
// created relation. Callers hold e.mu.
func (e *Engine) initCheckpointDirtyLocked(name string) {
	r := e.base[name]
	bits := make([]bool, r.Shards())
	for i := range bits {
		bits[i] = true
	}
	e.ckptDirty[name] = bits
}

// markCheckpointDirtyLocked records which shards a committed net delta
// touched. Callers hold e.mu; the update has already been installed,
// so the live relation's shard layout routes the tuples.
func (e *Engine) markCheckpointDirtyLocked(u delta.Update) {
	bits := e.ckptDirty[u.Rel]
	if bits == nil {
		return // relation unknown (cannot happen after validation)
	}
	r := e.base[u.Rel]
	n := r.Shards()
	if n <= 1 {
		if !u.IsEmpty() {
			bits[0] = true
		}
		return
	}
	key := r.ShardKey()
	mark := func(t tuple.Tuple) { bits[relation.ShardOf(t[key], n)] = true }
	if u.Inserts != nil {
		u.Inserts.Each(mark)
	}
	if u.Deletes != nil {
		u.Deletes.Each(mark)
	}
}

// TakeCheckpointDirty atomically snapshots the per-relation dirty-shard
// bitmaps and resets them all clean, marking the start of a checkpoint
// interval. The caller must hold the commit fence while calling (so
// the returned bitmaps correspond exactly to the WAL position it
// captures); if the checkpoint later fails, RestoreCheckpointDirty
// merges the taken bits back so the next checkpoint rewrites them.
func (e *Engine) TakeCheckpointDirty() map[string][]bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	taken := e.ckptDirty
	e.ckptDirty = make(map[string][]bool, len(taken))
	for name, bits := range taken {
		e.ckptDirty[name] = make([]bool, len(bits))
	}
	return taken
}

// RestoreCheckpointDirty ORs previously taken dirty bits back into the
// live bitmaps after a failed checkpoint, so nothing the failed run
// was responsible for persisting is ever skipped by the next one.
func (e *Engine) RestoreCheckpointDirty(taken map[string][]bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, bits := range taken {
		live := e.ckptDirty[name]
		if live == nil || len(live) != len(bits) {
			continue // relation re-created meanwhile; its bitmap is already all-dirty
		}
		for i, d := range bits {
			if d {
				live[i] = true
			}
		}
	}
}

// SetCheckpointClean marks every shard of rel clean — the durable
// layer calls it after a segmented load whose segments exactly match
// the relation's current shard layout, so the first checkpoint after
// recovery stays incremental.
func (e *Engine) SetCheckpointClean(rel string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if bits := e.ckptDirty[rel]; bits != nil {
		for i := range bits {
			bits[i] = false
		}
	}
}

// MarkAllCheckpointDirty forces the next checkpoint to rewrite every
// shard of every relation (benchmarks use it to price full checkpoints).
func (e *Engine) MarkAllCheckpointDirty() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, bits := range e.ckptDirty {
		for i := range bits {
			bits[i] = true
		}
	}
}

// Relations lists the snapshot's base relation names in scheme order.
func (s *Snapshot) Relations() []string { return s.scheme.Names() }

// RelationShards reports the shard count of a base relation as frozen
// in the snapshot (0 for an unknown relation).
func (s *Snapshot) RelationShards(rel string) int {
	r, ok := s.base[rel]
	if !ok {
		return 0
	}
	return r.Shards()
}

// ShardLen reports how many tuples one shard of a base relation holds,
// so the checkpoint can skip writing segments for empty shards.
func (s *Snapshot) ShardLen(rel string, shard int) int {
	r, ok := s.base[rel]
	if !ok {
		return 0
	}
	return r.ShardLen(shard)
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

// WriteShard writes one data segment: every tuple in one shard of one
// base relation. Segments are self-describing (relation name, written
// shard index and arity) so recovery can sanity-check the manifest.
func (s *Snapshot) WriteShard(out io.Writer, rel string, shard int) error {
	r, ok := s.base[rel]
	if !ok {
		return fmt.Errorf("db: unknown relation %q", rel)
	}
	if shard < 0 || shard >= r.Shards() {
		return fmt.Errorf("db: relation %q has no shard %d", rel, shard)
	}
	w := &writer{w: bufio.NewWriter(out)}
	w.str(segmentMagic)
	w.str(rel)
	w.u32(uint32(shard))
	arity := r.Scheme().Arity()
	w.u32(uint32(arity))
	w.u32(uint32(r.ShardLen(shard)))
	r.EachShard(shard, func(t tuple.Tuple) {
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
// definitions. Stream the data segments through LoadShardSegment, then
// call CompleteSegmentedLoad.
func BeginSegmentedLoad(in io.Reader, opts ...Option) (*Engine, *PendingViews, error) {
	r := &reader{r: bufio.NewReader(in)}
	switch magic := r.str(); {
	case r.err != nil:
		return nil, nil, fmt.Errorf("db: reading catalog header: %w", r.err)
	case magic != catalogMagic:
		return nil, nil, fmt.Errorf("db: not an mview catalog segment this build reads (magic %q, want %q)", magic, catalogMagic)
	}
	e := New(opts...)
	nRel := r.u32()
	if nRel > maxStr {
		return nil, nil, fmt.Errorf("db: corrupt catalog: %d relations", nRel)
	}
	for i := uint32(0); i < nRel; i++ {
		name := r.str()
		nAttr := r.u32()
		if r.err != nil || nAttr > maxStr {
			return nil, nil, fmt.Errorf("db: corrupt catalog: relation %q", name)
		}
		attrs := make([]schema.Attribute, nAttr)
		for j := range attrs {
			attrs[j] = schema.Attribute(r.str())
		}
		if r.err != nil {
			return nil, nil, r.err
		}
		if err := e.CreateRelation(name, attrs...); err != nil {
			return nil, nil, err
		}
	}
	nView := r.u32()
	if r.err != nil || nView > maxStr {
		return nil, nil, fmt.Errorf("db: corrupt catalog: %d views", nView)
	}
	pending := &PendingViews{defs: make([]pendingViewDef, 0, nView)}
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

// LoadShardSegment streams one data segment's tuples back into the
// named relation. Shard routing is recomputed on insert, so segments
// written under any shard count load correctly under any other.
func (e *Engine) LoadShardSegment(in io.Reader) error {
	r := &reader{r: bufio.NewReader(in)}
	if magic := r.str(); r.err != nil || magic != segmentMagic {
		if r.err != nil {
			return fmt.Errorf("db: reading segment header: %w", r.err)
		}
		return fmt.Errorf("db: not an mview data segment (magic %q)", magic)
	}
	rel := r.str()
	r.u32() // written shard index: informational
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
