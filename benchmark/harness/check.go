package harness

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// Model is the generator's own copy of every base relation. The
// server never sees it; after a run every view is recomputed from it
// with eval.Materialize and compared with what the server holds.
type Model struct {
	sc     *Scenario
	DB     *schema.Database
	Rels   []*relation.Relation
	Bounds []*expr.Bound // one per view, in Scenario.Views order
}

// NewModel builds the model at its preloaded state.
func NewModel(sc *Scenario) (*Model, error) {
	m := &Model{sc: sc}
	var rss []*schema.RelScheme
	for i, rd := range sc.Rels {
		attrs := make([]schema.Attribute, len(rd.Attrs))
		for j, a := range rd.Attrs {
			attrs[j] = schema.Attribute(a)
		}
		s, err := schema.NewScheme(attrs...)
		if err != nil {
			return nil, err
		}
		rss = append(rss, &schema.RelScheme{Name: rd.Name, Scheme: s})
		r := relation.NewCap(s, len(sc.Preload[i]))
		for _, row := range sc.Preload[i] {
			if err := r.Insert(tuple.Tuple(row[:len(rd.Attrs)]).Clone()); err != nil {
				return nil, err
			}
		}
		m.Rels = append(m.Rels, r)
	}
	db, err := schema.NewDatabase(rss...)
	if err != nil {
		return nil, err
	}
	m.DB = db
	for _, vd := range sc.Views {
		b, err := bindView(vd, db)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", vd.Name, err)
		}
		m.Bounds = append(m.Bounds, b)
	}
	return m, nil
}

// bindView resolves a view definition the way mview.DB.CreateView
// does: operands as "rel" or "rel alias", the condition parsed by
// pred.Parse.
func bindView(vd ViewDef, db *schema.Database) (*expr.Bound, error) {
	v := expr.View{Name: vd.Name}
	for _, f := range vd.From {
		fields := strings.Fields(f)
		op := expr.Operand{Rel: fields[0]}
		if len(fields) > 1 {
			op.Alias = fields[len(fields)-1]
		}
		v.Operands = append(v.Operands, op)
	}
	if vd.Where != "" {
		w, err := pred.Parse(vd.Where)
		if err != nil {
			return nil, err
		}
		v.Where = w
	}
	for _, a := range vd.Select {
		v.Project = append(v.Project, schema.Attribute(a))
	}
	return expr.Bind(v, db)
}

// Apply folds operations into the model with the engine's net
// semantics (inserting a present tuple or deleting an absent one is a
// no-op; the generators produce neither).
func (m *Model) Apply(ops []Op) error {
	for _, o := range ops {
		t := m.sc.tupleOf(o)
		if o.Del {
			m.Rels[o.Rel].Delete(t)
		} else if err := m.Rels[o.Rel].Insert(t); err != nil {
			return err
		}
	}
	return nil
}

// Operands returns the model instances a view reads, in operand order.
func (m *Model) Operands(b *expr.Bound) []*relation.Relation {
	insts := make([]*relation.Relation, len(b.Operands))
	for i, op := range b.Operands {
		for j, rd := range m.sc.Rels {
			if rd.Name == op.Rel {
				insts[i] = m.Rels[j]
			}
		}
	}
	return insts
}

// Expected recomputes view i from scratch over the model.
func (m *Model) Expected(i int) (*relation.Counted, error) {
	return eval.Materialize(m.Bounds[i], m.Operands(m.Bounds[i]), eval.Options{Greedy: true})
}

// fetcher performs one GET against a daemon and returns the body.
type fetcher func(path string) ([]byte, error)

type viewBody struct {
	Rows []struct {
		Values []int64
		Count  int64
	} `json:"rows"`
}

type relBody struct {
	Rows [][]int64 `json:"rows"`
}

// CheckViews compares every view the daemon holds — rows and §5.2
// counts — with the model's recomputation. who names the daemon in
// the error.
func (m *Model) CheckViews(who string, get fetcher) error {
	for i, vd := range m.sc.Views {
		want, err := m.Expected(i)
		if err != nil {
			return fmt.Errorf("materialize %s: %w", vd.Name, err)
		}
		raw, err := get("/v1/views/" + vd.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		var got viewBody
		if err := json.Unmarshal(raw, &got); err != nil {
			return fmt.Errorf("%s: view %s: %w", who, vd.Name, err)
		}
		rows := want.Tuples()
		if len(got.Rows) != len(rows) {
			return fmt.Errorf("%s: view %s has %d rows, the model recomputes %d", who, vd.Name, len(got.Rows), len(rows))
		}
		for j, w := range rows {
			g := got.Rows[j]
			if !slices.Equal(g.Values, []int64(w.Tuple)) || g.Count != w.Count {
				return fmt.Errorf("%s: view %s row %d is %v×%d, the model recomputes %v×%d",
					who, vd.Name, j, g.Values, g.Count, w.Tuple, w.Count)
			}
		}
	}
	return nil
}

// fetchRelation reads one base relation from the daemon.
func fetchRelation(get fetcher, name string) ([][]int64, error) {
	raw, err := get("/v1/relations/" + name)
	if err != nil {
		return nil, err
	}
	var got relBody
	if err := json.Unmarshal(raw, &got); err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return got.Rows, nil
}

// CheckRelations compares every base relation with the model.
func (m *Model) CheckRelations(who string, get fetcher) error {
	for i, rd := range m.sc.Rels {
		got, err := fetchRelation(get, rd.Name)
		if err != nil {
			return fmt.Errorf("%s: %w", who, err)
		}
		want := m.Rels[i].Tuples()
		if len(got) != len(want) {
			return fmt.Errorf("%s: relation %s has %d rows, the model %d", who, rd.Name, len(got), len(want))
		}
		for j, w := range want {
			if !slices.Equal(got[j], []int64(w)) {
				return fmt.Errorf("%s: relation %s row %d is %v, the model has %v", who, rd.Name, j, got[j], w)
			}
		}
	}
	return nil
}

// settleInflight decides, for a transaction that was in flight when
// the daemon was killed, whether the recovered daemon holds it. A
// transaction is atomic: the relation must show all of its operations
// or none. It returns true when the transaction was applied.
func (m *Model) settleInflight(get fetcher, ops []Op) (bool, error) {
	have := make(map[int8]map[string]bool)
	applied, notApplied := 0, 0
	for _, o := range ops {
		if have[o.Rel] == nil {
			rows, err := fetchRelation(get, m.sc.Rels[o.Rel].Name)
			if err != nil {
				return false, err
			}
			set := make(map[string]bool, len(rows))
			for _, r := range rows {
				set[tuple.Tuple(r).Key()] = true
			}
			have[o.Rel] = set
		}
		present := have[o.Rel][m.sc.tupleOf(o).Key()]
		if present != o.Del { // an insert that is there, a delete that is gone
			applied++
		} else {
			notApplied++
		}
	}
	if applied > 0 && notApplied > 0 {
		return false, fmt.Errorf("un-acked transaction %v is half applied after recovery (%d of %d operations)", ops, applied, len(ops))
	}
	return applied > 0, nil
}
