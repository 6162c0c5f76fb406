package bench

// The C-* experiments measure the paper's quantitative claims on
// synthetic sweeps (the paper reports no machine numbers; the SHAPES
// are what must reproduce).

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/irrelevance"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tabular"
	"mview/internal/tuple"
	"mview/internal/workload"
)

func scale(n int, quick bool) int {
	if quick {
		if n > 2000 {
			return n / 10
		}
		return n
	}
	return n
}

func randomConjN(rng *rand.Rand, nVars int) pred.Conjunction {
	vars := make([]pred.Var, nVars)
	for i := range vars {
		vars[i] = pred.Var(fmt.Sprintf("X%d", i))
	}
	ops := []pred.Op{pred.OpEQ, pred.OpLT, pred.OpLE, pred.OpGT, pred.OpGE}
	atoms := make([]pred.Atom, 2*nVars)
	for i := range atoms {
		x := vars[rng.Intn(nVars)]
		op := ops[rng.Intn(len(ops))]
		if rng.Intn(3) == 0 {
			atoms[i] = pred.VarConst(x, op, int64(rng.Intn(200)-100))
		} else {
			atoms[i] = pred.VarVar(x, op, vars[rng.Intn(nVars)], int64(rng.Intn(200)-100))
		}
	}
	return pred.And(atoms...)
}

func runCSat(w io.Writer, quick bool) error {
	t := tabular.New("variables", "floyd/op", "bellman-ford/op", "floyd growth")
	rng := rand.New(rand.NewSource(1))
	var prev time.Duration
	sizes := []int{4, 8, 16, 32, 64}
	if quick {
		sizes = []int{4, 8, 16}
	}
	for _, n := range sizes {
		conj := randomConjN(rng, n)
		fl, err := timeOp(func() error {
			_, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodFloyd)
			return err
		}, quick)
		if err != nil {
			return err
		}
		bf, err := timeOp(func() error {
			_, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodBellmanFord)
			return err
		}, quick)
		if err != nil {
			return err
		}
		growth := "-"
		if prev > 0 {
			growth = tabular.Ratio(float64(fl), float64(prev))
		}
		prev = fl
		t.Row(tabular.Int(n), tabular.Dur(fl), tabular.Dur(bf), growth)
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: Floyd grows ~8x per variable doubling (O(n³)); Bellman–Ford O(n·e) stays flatter")
	return nil
}

func alg41Fixture(nInv int) (*irrelevance.Checker, []tuple.Tuple, error) {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
	)
	if err != nil {
		return nil, nil, err
	}
	atoms := []pred.Atom{pred.VarVar("R.B", pred.OpEQ, "S.B", 0)}
	for i := 0; i < nInv; i++ {
		atoms = append(atoms, pred.VarConst("S.C", pred.OpGE, int64(-1000-i)))
	}
	atoms = append(atoms, pred.VarConst("R.A", pred.OpLT, 1000))
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.Or(pred.And(atoms...)),
	}, db)
	if err != nil {
		return nil, nil, err
	}
	c, err := irrelevance.NewChecker(b, 0, irrelevance.Options{})
	if err != nil {
		return nil, nil, err
	}
	g := workload.New(3)
	ts, err := g.Tuples(2, 1024, 4000)
	return c, ts, err
}

func runCAlg41(w io.Writer, quick bool) error {
	t := tabular.New("invariant atoms", "prepared (Alg 4.1)/tuple", "rebuild/tuple", "speedup")
	for _, nInv := range []int{4, 16, 64} {
		c, ts, err := alg41Fixture(nInv)
		if err != nil {
			return err
		}
		i := 0
		fast, err := timeOp(func() error {
			_, err := c.Relevant(ts[i%len(ts)])
			i++
			return err
		}, quick)
		if err != nil {
			return err
		}
		i = 0
		slow, err := timeOp(func() error {
			_, err := c.RelevantNaive(ts[i%len(ts)])
			i++
			return err
		}, quick)
		if err != nil {
			return err
		}
		t.Row(tabular.Int(nInv), tabular.Dur(fast), tabular.Dur(slow),
			tabular.Ratio(float64(slow), float64(fast)))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: preparing the invariant graph once turns per-tuple cost from O(n³) into O(k²)")
	return nil
}

func runCFilt(w io.Writer, quick bool) error {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
	)
	if err != nil {
		return err
	}
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("R.B = S.B && R.A < 1000"),
	}, db)
	if err != nil {
		return err
	}
	g := workload.New(23)
	n := scale(20_000, quick)
	base, err := g.Relation(schema.MustScheme("A", "B"), n, 10_000)
	if err != nil {
		return err
	}
	s, err := g.Relation(schema.MustScheme("B", "C"), n, 10_000)
	if err != nil {
		return err
	}
	// Persistent indexes so join work tracks the surviving delta and
	// the filter's effect is visible rather than drowned in scans.
	prov := make(provMap)
	bix, err := relation.BuildIndex(base, 1)
	if err != nil {
		return err
	}
	six, err := relation.BuildIndex(s, 0)
	if err != nil {
		return err
	}
	prov["R"] = map[int]*relation.Index{1: bix}
	prov["S"] = map[int]*relation.Index{0: six}

	t := tabular.New("relevant fraction", "filter ON/tx", "filter OFF/tx", "filtered out", "speedup")
	for _, pct := range []int{0, 25, 50, 75, 100} {
		stream := g.ThresholdStream(2, 500, 1000, 10_000, float64(pct)/100)
		insRel := relation.New(schema.MustScheme("A", "B"))
		for _, tu := range stream {
			if !base.Has(tu) {
				_ = insRel.Insert(tu)
			}
		}
		ups := []delta.Update{{Rel: "R", Inserts: insRel}}
		pre := []*relation.Relation{base, s}
		var filtered int
		times := make(map[bool]time.Duration)
		for _, filter := range []bool{true, false} {
			m, err := diffeval.NewMaintainer(b, diffeval.Options{Filter: filter})
			if err != nil {
				return err
			}
			d, err := timeOp(func() error {
				vd, err := m.ComputeDeltaWith(pre, ups, prov)
				if err == nil && filter {
					filtered = vd.Stats.FilteredOut
				}
				return err
			}, quick)
			if err != nil {
				return err
			}
			times[filter] = d
		}
		t.Row(fmt.Sprintf("%d%%", pct), tabular.Dur(times[true]), tabular.Dur(times[false]),
			tabular.Int(filtered), tabular.Ratio(float64(times[false]), float64(times[true])))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: the filter's win grows as the irrelevant fraction grows; at 100% relevant it costs a small overhead")
	return nil
}

func runCSel(w io.Writer, quick bool) error {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
	)
	if err != nil {
		return err
	}
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A < 500000"),
		Project:  []schema.Attribute{"B"},
	}, db)
	if err != nil {
		return err
	}
	g := workload.New(7)
	baseN := scale(100_000, quick)
	base, err := g.Relation(schema.MustScheme("A", "B"), baseN, 1_000_000)
	if err != nil {
		return err
	}
	m, err := diffeval.NewMaintainer(b, diffeval.Options{})
	if err != nil {
		return err
	}
	t := tabular.New("|delta|", "differential/op", "recompute/op", "speedup")
	deltas := []int{1, 10, 100, 1000, 10_000}
	if quick {
		deltas = []int{1, 100}
	}
	for _, dn := range deltas {
		ins, err := g.FreshTuples(base, dn, 1_000_000)
		if err != nil {
			return err
		}
		insRel, err := relation.FromTuples(schema.MustScheme("A", "B"), ins...)
		if err != nil {
			return err
		}
		ups := []delta.Update{{Rel: "R", Inserts: insRel}}
		post := base.Clone()
		if err := ups[0].Apply(post); err != nil {
			return err
		}
		diff, err := timeOp(func() error {
			_, err := m.ComputeDelta([]*relation.Relation{base}, ups)
			return err
		}, quick)
		if err != nil {
			return err
		}
		full, err := timeOp(func() error {
			_, _, err := m.Materialize([]*relation.Relation{post}, nil)
			return err
		}, quick)
		if err != nil {
			return err
		}
		t.Row(tabular.Int(dn), tabular.Dur(diff), tabular.Dur(full),
			tabular.Ratio(float64(full), float64(diff)))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "shape (§5.1): differential cost scales with |delta| over a %d-row base; recompute is flat and large\n", baseN)
	return nil
}

func runCProj(w io.Writer, quick bool) error {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
	)
	if err != nil {
		return err
	}
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Project:  []schema.Attribute{"B"},
	}, db)
	if err != nil {
		return err
	}
	n := scale(50_000, quick)
	t := tabular.New("dup factor", "differential delete/op", "recompute/op", "speedup")
	g := workload.New(11)
	for _, dup := range []int{1, 4, 16} {
		base := relation.New(schema.MustScheme("A", "B"))
		for i := 0; i < n; i++ {
			_ = base.Insert(tuple.New(int64(i), int64(i%(n/dup))))
		}
		dels := g.Sample(base, 500)
		delRel, err := relation.FromTuples(schema.MustScheme("A", "B"), dels...)
		if err != nil {
			return err
		}
		ups := []delta.Update{{Rel: "R", Deletes: delRel}}
		post := base.Clone()
		if err := ups[0].Apply(post); err != nil {
			return err
		}
		m, err := diffeval.NewMaintainer(b, diffeval.Options{})
		if err != nil {
			return err
		}
		diff, err := timeOp(func() error {
			_, err := m.ComputeDelta([]*relation.Relation{base}, ups)
			return err
		}, quick)
		if err != nil {
			return err
		}
		full, err := timeOp(func() error {
			_, _, err := m.Materialize([]*relation.Relation{post}, nil)
			return err
		}, quick)
		if err != nil {
			return err
		}
		t.Row(tabular.Int(dup), tabular.Dur(diff), tabular.Dur(full),
			tabular.Ratio(float64(full), float64(diff)))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape (§5.2): counters make deletes exact at delta cost regardless of how many derivations share a view tuple")
	return nil
}

// chainFixture mirrors the bench_test join fixture.
type chainFixture struct {
	bound *expr.Bound
	pre   []*relation.Relation
	ups   []delta.Update
	post  []*relation.Relation
	prov  provMap
}

type provMap map[string]map[int]*relation.Index

func (p provMap) Index(rel string, pos int) *relation.Index { return p[rel][pos] }

func makeChain(p, k, rows, deltaN int) (*chainFixture, error) {
	return makeChainUpd(p, firstK(k), rows, deltaN, false)
}

func firstK(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// makeChainUpd builds a p-way chain fixture with net inserts, or net
// deletes, on the listed relation indexes.
func makeChainUpd(p int, modify []int, rows, deltaN int, deletes bool) (*chainFixture, error) {
	g := workload.New(int64(100*p + len(modify)))
	ch, err := g.Chain(p, rows, int64(rows))
	if err != nil {
		return nil, err
	}
	bound, err := expr.Bind(ch.View, ch.DB)
	if err != nil {
		return nil, err
	}
	fx := &chainFixture{bound: bound, pre: ch.Insts, prov: make(provMap)}
	fx.post = make([]*relation.Relation, len(ch.Insts))
	for i := range fx.post {
		fx.post[i] = ch.Insts[i].Clone()
	}
	for _, i := range modify {
		var u delta.Update
		if deletes {
			dels := g.Sample(ch.Insts[i], deltaN)
			delRel, err := relation.FromTuples(ch.Insts[i].Scheme(), dels...)
			if err != nil {
				return nil, err
			}
			u = delta.Update{Rel: ch.Names[i], Deletes: delRel}
		} else {
			ins, err := g.FreshTuples(ch.Insts[i], deltaN, int64(rows))
			if err != nil {
				return nil, err
			}
			insRel, err := relation.FromTuples(ch.Insts[i].Scheme(), ins...)
			if err != nil {
				return nil, err
			}
			u = delta.Update{Rel: ch.Names[i], Inserts: insRel}
		}
		fx.ups = append(fx.ups, u)
		if err := u.Apply(fx.post[i]); err != nil {
			return nil, err
		}
	}
	for i, name := range ch.Names {
		fx.prov[name] = make(map[int]*relation.Index)
		for pos := 0; pos < 2; pos++ {
			ix, err := relation.BuildIndex(ch.Insts[i], pos)
			if err != nil {
				return nil, err
			}
			fx.prov[name][pos] = ix
		}
	}
	return fx, nil
}

func runCJoin(w io.Writer, quick bool) error {
	rows := scale(20_000, quick)
	t := tabular.New("|delta|", "indexed diff/op", "scan diff/op", "recompute/op", "indexed speedup")
	deltas := []int{1, 10, 100, 1000}
	if quick {
		deltas = []int{1, 100}
	}
	for _, dn := range deltas {
		fx, err := makeChain(2, 1, rows, dn)
		if err != nil {
			return err
		}
		m, err := diffeval.NewMaintainer(fx.bound, diffeval.Options{})
		if err != nil {
			return err
		}
		ti, err := timeOp(func() error {
			_, err := m.ComputeDeltaWith(fx.pre, fx.ups, fx.prov)
			return err
		}, quick)
		if err != nil {
			return err
		}
		ts, err := timeOp(func() error {
			_, err := m.ComputeDelta(fx.pre, fx.ups)
			return err
		}, quick)
		if err != nil {
			return err
		}
		tf, err := timeOp(func() error {
			_, _, err := m.Materialize(fx.post, nil)
			return err
		}, quick)
		if err != nil {
			return err
		}
		t.Row(tabular.Int(dn), tabular.Dur(ti), tabular.Dur(ts), tabular.Dur(tf),
			tabular.Ratio(float64(tf), float64(ti)))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "shape (§5.3): over a %d-row 2-way join, differential work follows the delta; persistent indexes remove the residual base scans\n", rows)
	return nil
}

func runCRows(w io.Writer, quick bool) error {
	rows := scale(5_000, quick)
	t := tabular.New("k modified (p=4)", "rows evaluated", "indexed diff/op")
	for _, k := range []int{1, 2, 3, 4} {
		fx, err := makeChain(4, k, rows, 50)
		if err != nil {
			return err
		}
		m, err := diffeval.NewMaintainer(fx.bound, diffeval.Options{})
		if err != nil {
			return err
		}
		var rowsEval int
		d, err := timeOp(func() error {
			vd, err := m.ComputeDeltaWith(fx.pre, fx.ups, fx.prov)
			if err == nil {
				rowsEval = vd.Stats.RowsEvaluated
			}
			return err
		}, quick)
		if err != nil {
			return err
		}
		t.Row(fmt.Sprintf("%d (2^%d−1 = %d)", k, k, (1<<k)-1), tabular.Int(rowsEval), tabular.Dur(d))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape (§5.3): the truth table doubles per modified relation, but empty-intermediate pruning keeps completed rows below 2^k−1")
	return nil
}

func runCSPJ(w io.Writer, quick bool) error {
	g := workload.New(31)
	w2, err := g.Orders(scale(20_000, quick), 2, 2_000, 4, 500, 50)
	if err != nil {
		return err
	}
	bound, err := expr.Bind(expr.View{
		Name:     "hot",
		Operands: []expr.Operand{{Rel: "orders"}, {Rel: "items"}},
		Where:    pred.MustParse("orders.OID = items.OID && orders.REGION = 2 && items.QTY >= 40"),
		Project:  []schema.Attribute{"orders.OID", "orders.CUST", "items.SKU", "items.QTY"},
	}, w2.DB)
	if err != nil {
		return err
	}
	oid := int64(1_000_000)
	ups := []delta.Update{
		{Rel: "orders", Inserts: relation.MustFromTuples(w2.Orders.Scheme(), tuple.New(oid, 7, 2))},
		{Rel: "items", Inserts: relation.MustFromTuples(w2.Items.Scheme(),
			tuple.New(oid, 1, 45), tuple.New(oid, 2, 10), tuple.New(oid, 3, 50))},
	}
	pre := []*relation.Relation{w2.Orders, w2.Items}
	post := []*relation.Relation{w2.Orders.Clone(), w2.Items.Clone()}
	_ = ups[0].Apply(post[0])
	_ = ups[1].Apply(post[1])
	prov := make(provMap)
	oix, _ := relation.BuildIndex(w2.Orders, 0)
	iix, _ := relation.BuildIndex(w2.Items, 0)
	prov["orders"] = map[int]*relation.Index{0: oix}
	prov["items"] = map[int]*relation.Index{0: iix}

	t := tabular.New("method", "time per transaction")
	mi, err := diffeval.NewMaintainer(bound, diffeval.Options{Filter: true})
	if err != nil {
		return err
	}
	d, err := timeOp(func() error {
		_, err := mi.ComputeDeltaWith(pre, ups, prov)
		return err
	}, quick)
	if err != nil {
		return err
	}
	t.Row("differential (indexed, filtered)", tabular.Dur(d))
	ms, err := diffeval.NewMaintainer(bound, diffeval.Options{})
	if err != nil {
		return err
	}
	d2, err := timeOp(func() error {
		_, err := ms.ComputeDelta(pre, ups)
		return err
	}, quick)
	if err != nil {
		return err
	}
	t.Row("differential (scans)", tabular.Dur(d2))
	d3, err := timeOp(func() error {
		_, _, err := ms.Materialize(post, nil)
		return err
	}, quick)
	if err != nil {
		return err
	}
	t.Row("complete re-evaluation", tabular.Dur(d3))
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: the headline — per-transaction view maintenance at delta cost instead of join cost")
	return nil
}

func runCT42(w io.Writer, quick bool) error {
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
	)
	if err != nil {
		return err
	}
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("R.B = S.B && R.A < 100 && S.C > 50"),
	}, db)
	if err != nil {
		return err
	}
	t := tabular.New("r-tuple", "s-tuple", "individually", "jointly (Thm 4.2)")
	cases := []struct {
		rt, st tuple.Tuple
	}{
		{tuple.New(9, 10), tuple.New(10, 60)},
		{tuple.New(9, 10), tuple.New(20, 60)},
		{tuple.New(9, 10), tuple.New(10, 40)},
	}
	for _, c := range cases {
		c0, err := irrelevance.NewChecker(b, 0, irrelevance.Options{})
		if err != nil {
			return err
		}
		c1, err := irrelevance.NewChecker(b, 1, irrelevance.Options{})
		if err != nil {
			return err
		}
		r0, err := c0.Relevant(c.rt)
		if err != nil {
			return err
		}
		r1, err := c1.Relevant(c.st)
		if err != nil {
			return err
		}
		joint, err := irrelevance.SetRelevant(b, map[int]tuple.Tuple{0: c.rt, 1: c.st}, irrelevance.Options{})
		if err != nil {
			return err
		}
		indiv := fmt.Sprintf("r:%v s:%v", verdict(r0), verdict(r1))
		t.Row(c.rt.String(), c.st.String(), indiv, verdict(joint))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	d, err := timeOp(func() error {
		_, err := irrelevance.SetRelevant(b, map[int]tuple.Tuple{
			0: tuple.New(9, 10), 1: tuple.New(20, 60)}, irrelevance.Options{})
		return err
	}, quick)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "joint test cost: %v/pair — row 2 shows tuples individually relevant but jointly impossible (B=10 vs B=20)\n", tabular.Dur(d))
	return nil
}

func verdict(rel bool) string {
	if rel {
		return "relevant"
	}
	return "IRRELEVANT"
}

func runCSnap(w io.Writer, quick bool) error {
	// A scan-based join view (what a 1986 system without persistent
	// indexes maintains): each refresh pays real join work, so
	// refreshing once per batch instead of once per transaction — and
	// letting composition cancel churn — is where §6's snapshot
	// regime wins.
	rows := scale(5_000, quick)
	g := workload.New(41)
	ch, err := g.Chain(2, rows, int64(rows))
	if err != nil {
		return err
	}
	b, err := expr.Bind(ch.View, ch.DB)
	if err != nil {
		return err
	}
	m, err := diffeval.NewMaintainer(b, diffeval.Options{})
	if err != nil {
		return err
	}
	// A churn-heavy day: each transaction inserts a batch of hot rows
	// into R1 and the next one removes 90% of them again, so nearly
	// all work cancels under composition.
	nTx := 100
	if quick {
		nTx = 20
	}
	txUps := make([]delta.Update, nTx)
	state := ch.Insts[0].Clone()
	var hot []tuple.Tuple
	for i := range txUps {
		u := delta.Update{Rel: ch.Names[0],
			Inserts: relation.New(state.Scheme()),
			Deletes: relation.New(state.Scheme())}
		for j, t := range hot {
			if j%10 != 0 {
				_ = u.Deletes.Insert(t)
			}
		}
		ins, err := g.FreshTuples(state, 20, int64(rows))
		if err != nil {
			return err
		}
		for _, t := range ins {
			_ = u.Inserts.Insert(t)
		}
		hot = ins
		txUps[i] = u
		if err := u.Apply(state); err != nil {
			return err
		}
	}

	// Immediate: maintenance runs after every transaction. Only the
	// ComputeDelta calls are timed; state bookkeeping is not.
	cur := ch.Insts[0].Clone()
	var imm time.Duration
	immWork := 0
	for _, u := range txUps {
		start := time.Now()
		d, err := m.ComputeDelta([]*relation.Relation{cur, ch.Insts[1]}, []delta.Update{u})
		if err != nil {
			return err
		}
		imm += time.Since(start)
		immWork += d.Stats.DeltaInserts + d.Stats.DeltaDeletes
		if err := u.Apply(cur); err != nil {
			return err
		}
	}

	// Deferred: compose all net effects, refresh once.
	start := time.Now()
	comp := txUps[0]
	for _, u := range txUps[1:] {
		var err error
		comp, err = delta.Compose(comp, u)
		if err != nil {
			return err
		}
	}
	d, err := m.ComputeDelta([]*relation.Relation{ch.Insts[0], ch.Insts[1]}, []delta.Update{comp})
	if err != nil {
		return err
	}
	def := time.Since(start)
	defWork := d.Stats.DeltaInserts + d.Stats.DeltaDeletes

	t := tabular.New("regime", "maintenance time / batch", "view delta tuples", "refreshes")
	t.Row("immediate (per tx)", tabular.Dur(imm), tabular.Int(immWork), tabular.Int(nTx))
	t.Row("deferred (compose + 1 refresh)", tabular.Dur(def), tabular.Int(defWork), "1")
	t.Row("ratio", tabular.Ratio(float64(imm), float64(def)), tabular.Ratio(float64(immWork), float64(defWork)), "")
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape (§6): composition cancels churn before it ever reaches the view; one deferred refresh does a fraction of the per-transaction work")
	return nil
}

func runCAdapt(w io.Writer, quick bool) error {
	// Where is the crossover between differential (scan-based, as in
	// the paper) and complete re-evaluation — and does the adaptive
	// policy track the winner? (The paper's closing question.)
	rows := scale(20_000, quick)
	t := tabular.New("|delta|/|base|", "differential/op", "recompute/op", "adaptive picks", "adaptive/op")
	fracs := []float64{0.001, 0.01, 0.1, 0.3, 0.6, 0.9}
	if quick {
		fracs = []float64{0.01, 0.9}
	}
	for _, frac := range fracs {
		deltaN := int(frac * float64(rows))
		if deltaN < 1 {
			deltaN = 1
		}
		// Delete-heavy updates: the workload where complete
		// re-evaluation eventually wins (the post-state shrinks while
		// differential still pays per deleted tuple).
		fx, err := makeChainUpd(2, []int{0}, rows, deltaN, true)
		if err != nil {
			return err
		}
		m, err := diffeval.NewMaintainer(fx.bound, diffeval.Options{})
		if err != nil {
			return err
		}
		diff, err := timeOp(func() error {
			_, err := m.ComputeDelta(fx.pre, fx.ups)
			return err
		}, quick)
		if err != nil {
			return err
		}
		full, err := timeOp(func() error {
			_, _, err := m.Materialize(fx.post, nil)
			return err
		}, quick)
		if err != nil {
			return err
		}
		// The engine's rule: delta > 25% of combined base → recompute.
		baseSize := fx.pre[0].Len() + fx.pre[1].Len()
		pick, adaptive := "differential", diff
		if float64(deltaN) > 0.25*float64(baseSize) {
			pick, adaptive = "recompute", full
		}
		t.Row(fmt.Sprintf("%.1f%%", 100*float64(deltaN)/float64(baseSize)),
			tabular.Dur(diff), tabular.Dur(full), pick, tabular.Dur(adaptive))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: scan-based differential wins while deltas are small and loses past a crossover; the adaptive policy stays near the lower envelope")
	return nil
}

func runCNe(w io.Writer, quick bool) error {
	t := tabular.New("≠ atoms", "conjuncts after expansion", "exact test/op")
	for _, k := range []int{1, 2, 4, 8} {
		atoms := []pred.Atom{pred.VarConst("X0", pred.OpLT, 100)}
		for i := 0; i < k; i++ {
			atoms = append(atoms, pred.VarConst(pred.Var(fmt.Sprintf("X%d", i)), pred.OpNE, int64(i)))
		}
		c := pred.And(atoms...)
		var conjs int
		d, err := timeOp(func() error {
			cs, err := pred.ExpandNE(c, 1024)
			if err != nil {
				return err
			}
			conjs = len(cs)
			for _, conj := range cs {
				if _, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodFloyd); err != nil {
					return err
				}
			}
			return nil
		}, quick)
		if err != nil {
			return err
		}
		t.Row(tabular.Int(k), tabular.Int(conjs), tabular.Dur(d))
	}
	if _, err := t.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "shape: exact ≠ handling doubles the work per atom (2^k conjuncts); beyond the cap the checker degrades to sound-but-conservative")
	return nil
}
