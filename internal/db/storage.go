package db

// Durable snapshots of the engine: a versioned, deterministic binary
// format holding the database scheme, every base relation's contents,
// and every view definition with its configuration. Loading rebuilds
// the engine and re-materializes the views from the restored base
// relations (so a loaded engine is always internally consistent;
// deferred views come back fresh).

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func satMethod(v uint8) satgraph.Method { return satgraph.Method(v) }

// storageMagic identifies the format; the trailing digit is the
// version. Version 2 is the only one read or written.
const storageMagic = "MVIEWDB2"

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	if w.err == nil {
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) i64(v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	if w.err == nil {
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) f64(v float64) { w.i64(int64(math.Float64bits(v))) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.fail(err)
	return b
}

func (r *reader) u32() uint32 {
	var b [4]byte
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.fail(err)
		return 0
	}
	return binary.BigEndian.Uint32(b[:])
}

func (r *reader) i64() int64 {
	var b [8]byte
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		r.fail(err)
		return 0
	}
	return int64(binary.BigEndian.Uint64(b[:]))
}

func (r *reader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

// maxStr bounds string lengths so corrupt input cannot trigger huge
// allocations.
const maxStr = 1 << 20

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxStr {
		r.fail(fmt.Errorf("db: corrupt snapshot: string length %d", n))
		return ""
	}
	// n is untrusted: past a page, the buffer grows with the bytes that
	// actually arrive instead of being presized from the claim.
	var b []byte
	var err error
	if n <= 4096 {
		b = make([]byte, n)
		_, err = io.ReadFull(r.r, b)
	} else if b, err = io.ReadAll(io.LimitReader(r.r, int64(n))); err == nil && len(b) < int(n) {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		r.fail(err)
		return ""
	}
	return string(b)
}

func (r *reader) bool() bool { return r.u8() != 0 }

// Save writes a snapshot of the engine: scheme, base relation
// contents, and view definitions with their configurations. Deferred
// views are persisted by definition only; on load they re-materialize
// fresh.
func (e *Engine) Save(out io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()

	w := &writer{w: bufio.NewWriter(out)}
	w.str(storageMagic)

	names := e.scheme.Names()
	w.u32(uint32(len(names)))
	for _, name := range names {
		rs, _ := e.scheme.Rel(name)
		w.str(name)
		attrs := rs.Scheme.Attributes()
		w.u32(uint32(len(attrs)))
		for _, a := range attrs {
			w.str(string(a))
		}
		inst := e.base[name]
		w.u32(uint32(inst.Len()))
		for _, t := range inst.Tuples() {
			for _, v := range t {
				w.i64(v)
			}
		}
	}

	w.u32(uint32(len(e.viewOrder)))
	for _, name := range e.viewOrder {
		st := e.views[name]
		writeViewDef(w, name, st.bound, st.cfg)
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// writeViewDef encodes one view definition (operands, predicate,
// projection, configuration) — the unit shared by the monolithic Save
// stream and the checkpoint catalog segment.
func writeViewDef(w *writer, name string, b *expr.Bound, cfg ViewConfig) {
	w.str(name)
	w.u32(uint32(len(b.Operands)))
	for _, op := range b.Operands {
		w.str(op.Rel)
		w.str(op.Alias)
	}
	writeDNF(w, b.Where)
	w.u32(uint32(len(b.Project)))
	for _, a := range b.Project {
		w.str(string(a))
	}
	w.u8(0) // retired mode byte: written as 0, skipped on read
	w.u8(uint8(cfg.Policy))
	w.f64(0) // retired adaptive threshold: written as 0, skipped on read
	w.u8(0)  // retired row-strategy byte: written as 0, skipped on read
	w.bool(cfg.Maint.Filter)
	w.u8(uint8(cfg.Maint.FilterOptions.Method))
	w.i64(int64(cfg.Maint.FilterOptions.NELimit))
	w.bool(false) // retired greedy-order flag: written as false, skipped on read
	w.u8(uint8(cfg.When.Kind))
	w.i64(int64(cfg.When.Interval))
	w.i64(int64(cfg.When.Bound))
}

// readViewDef decodes one view definition written by writeViewDef.
func readViewDef(r *reader) (expr.View, ViewConfig, error) {
	name := r.str()
	nOp := r.u32()
	if r.err != nil || nOp > maxStr {
		return expr.View{}, ViewConfig{}, fmt.Errorf("db: corrupt snapshot: view %q", name)
	}
	v := expr.View{Name: name}
	for j := uint32(0); j < nOp && r.err == nil; j++ {
		rel := r.str()
		alias := r.str()
		v.Operands = append(v.Operands, expr.Operand{Rel: rel, Alias: alias})
	}
	v.Where = readDNF(r)
	nProj := r.u32()
	if r.err != nil || nProj > maxStr {
		return expr.View{}, ViewConfig{}, fmt.Errorf("db: corrupt snapshot: view %q projection", name)
	}
	for j := uint32(0); j < nProj && r.err == nil; j++ {
		v.Project = append(v.Project, schema.Attribute(r.str()))
	}
	var cfg ViewConfig
	r.u8() // retired mode byte
	cfg.Policy = Policy(r.u8())
	r.f64() // retired adaptive threshold
	r.u8()  // retired row-strategy byte
	cfg.Maint.Filter = r.bool()
	cfg.Maint.FilterOptions.Method = satMethod(r.u8())
	cfg.Maint.FilterOptions.NELimit = int(r.i64())
	r.bool() // retired greedy-order flag
	cfg.When.Kind = RefreshKind(r.u8())
	cfg.When.Interval = time.Duration(r.i64())
	cfg.When.Bound = time.Duration(r.i64())
	if r.err != nil {
		return expr.View{}, ViewConfig{}, fmt.Errorf("db: corrupt snapshot: view %q config: %w", name, r.err)
	}
	return v, cfg, nil
}

func writeDNF(w *writer, d pred.DNF) {
	w.u32(uint32(len(d.Conjuncts)))
	for _, c := range d.Conjuncts {
		w.u32(uint32(len(c.Atoms)))
		for _, a := range c.Atoms {
			w.str(string(a.Left))
			w.u8(uint8(a.Op))
			w.bool(a.HasRightVar())
			if a.HasRightVar() {
				w.str(string(a.Right))
			}
			w.i64(a.C)
		}
	}
}

// readRelation decodes one relation's name and attributes. The
// attribute count is untrusted, so the list grows by append.
func readRelation(r *reader) (relDef, error) {
	d := relDef{name: r.str()}
	nAttr := r.u32()
	if r.err != nil || nAttr > maxStr {
		return d, fmt.Errorf("db: corrupt snapshot: relation %q", d.name)
	}
	for j := uint32(0); j < nAttr && r.err == nil; j++ {
		d.attrs = append(d.attrs, schema.Attribute(r.str()))
	}
	return d, r.err
}

func readDNF(r *reader) pred.DNF {
	nc := r.u32()
	if r.err != nil || nc > maxStr {
		r.fail(fmt.Errorf("db: corrupt snapshot: %d conjuncts", nc))
		return pred.DNF{}
	}
	// Both counts are untrusted: the slices grow by append, so storage
	// follows the bytes actually read.
	d := pred.DNF{Conjuncts: []pred.Conjunction{}}
	for i := uint32(0); i < nc && r.err == nil; i++ {
		na := r.u32()
		if na > maxStr {
			r.fail(fmt.Errorf("db: corrupt snapshot: %d atoms", na))
			return pred.DNF{}
		}
		atoms := []pred.Atom{}
		for j := uint32(0); j < na && r.err == nil; j++ {
			left := pred.Var(r.str())
			op := pred.Op(r.u8())
			hasRight := r.bool()
			var right pred.Var
			if hasRight {
				right = pred.Var(r.str())
			}
			c := r.i64()
			if hasRight {
				atoms = append(atoms, pred.VarVar(left, op, right, c))
			} else {
				atoms = append(atoms, pred.VarConst(left, op, c))
			}
		}
		d.Conjuncts = append(d.Conjuncts, pred.Conjunction{Atoms: atoms})
	}
	return d
}

// Load reads a snapshot produced by Save and returns a fresh engine
// with all relations restored and all views re-materialized.
func Load(in io.Reader) (*Engine, error) {
	r := &reader{r: bufio.NewReader(in)}
	switch magic := r.str(); {
	case r.err != nil:
		return nil, fmt.Errorf("db: reading snapshot header: %w", r.err)
	case magic != storageMagic:
		return nil, fmt.Errorf("db: not an mview snapshot this build reads (magic %q, want %q)", magic, storageMagic)
	}

	e := New()
	nRel := r.u32()
	if nRel > maxStr {
		return nil, fmt.Errorf("db: corrupt snapshot: %d relations", nRel)
	}
	for i := uint32(0); i < nRel; i++ {
		d, err := readRelation(r)
		if err != nil {
			return nil, err
		}
		if err := e.CreateRelation(d.name, d.attrs...); err != nil {
			return nil, err
		}
		nTup := r.u32()
		inst := e.base[d.name]
		for j := uint32(0); j < nTup && r.err == nil; j++ {
			t := make(tuple.Tuple, inst.Scheme().Arity())
			for k := range t {
				t[k] = r.i64()
			}
			if err := inst.Insert(t); err != nil {
				return nil, err
			}
		}
	}

	nView := r.u32()
	if nView > maxStr {
		return nil, fmt.Errorf("db: corrupt snapshot: %d views", nView)
	}
	for i := uint32(0); i < nView; i++ {
		v, cfg, err := readViewDef(r)
		if err != nil {
			return nil, err
		}
		if err := e.CreateView(v, cfg); err != nil {
			return nil, fmt.Errorf("db: restoring view %q: %w", v.Name, err)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	// The tuple loads above inserted directly into relations that the
	// interim snapshots (published by CreateRelation/CreateView)
	// already reference; no readers exist while Load owns the engine,
	// so republishing here is enough to freeze the final state.
	e.mu.Lock()
	e.publishLocked()
	e.mu.Unlock()
	return e, nil
}
