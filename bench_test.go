package mview

// Benchmarks regenerating the quantitative claims indexed in
// DESIGN.md §4 and reported in EXPERIMENTS.md. The paper (SIGMOD
// 1986) has no machine experiments; each bench exposes the SHAPE of a
// claim — who wins, by what factor, where the crossover falls.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mview/internal/db"
	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/irrelevance"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/repl"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
	"mview/internal/workload"
)

// ---------- shared helpers ----------

func benchDB(b *testing.B) *schema.Database {
	b.Helper()
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("B", "C")},
	)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func mustBind(b *testing.B, v expr.View, db *schema.Database) *expr.Bound {
	b.Helper()
	bound, err := expr.Bind(v, db)
	if err != nil {
		b.Fatal(err)
	}
	return bound
}

// randomConj builds a satisfiable-ish random conjunction over nVars
// variables with ~2·nVars atoms (the O(n³) sweep input).
func randomConj(rng *rand.Rand, nVars int) pred.Conjunction {
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

// ---------- C-SAT-N3: satisfiability scaling ----------

func BenchmarkSatFloyd(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conj := randomConj(rng, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodFloyd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSatBellmanFord(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conj := randomConj(rng, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodBellmanFord); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSatDNF(b *testing.B) {
	for _, m := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("disjuncts=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			conjs := make([]pred.Conjunction, m)
			for i := range conjs {
				conjs[i] = randomConj(rng, 16)
			}
			d := pred.Or(conjs...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := satgraph.SatisfiableDNF(d, satgraph.MethodFloyd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- C-ALG41: invariant-graph reuse ----------

func alg41Checker(b *testing.B, nInv int) (*irrelevance.Checker, []tuple.Tuple) {
	b.Helper()
	db := benchDB(b)
	// Condition: invariant chain over S.C-derived pseudo-variables is
	// not expressible with two relations, so scale the invariant part
	// with constant bounds on S.C and a join atom on B.
	atoms := []pred.Atom{pred.VarVar("R.B", pred.OpEQ, "S.C", 0)}
	for i := 0; i < nInv; i++ {
		atoms = append(atoms, pred.VarConst("S.C", pred.OpGE, int64(-1000-i)))
	}
	atoms = append(atoms, pred.VarConst("R.A", pred.OpLT, 1000))
	bound := mustBind(b, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.Or(pred.And(atoms...)),
	}, db)
	c, err := irrelevance.NewChecker(bound, 0, irrelevance.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := workload.New(3)
	ts, err := g.Tuples(2, 4096, 4000)
	if err != nil {
		b.Fatal(err)
	}
	return c, ts
}

func BenchmarkFilterReuse(b *testing.B) {
	for _, nInv := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("invariants=%d", nInv), func(b *testing.B) {
			c, ts := alg41Checker(b, nInv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Relevant(ts[i%len(ts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFilterRebuild(b *testing.B) {
	for _, nInv := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("invariants=%d", nInv), func(b *testing.B) {
			c, ts := alg41Checker(b, nInv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RelevantNaive(ts[i%len(ts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- C-SEL: select view, differential vs recompute ----------

func selectViewFixture(b *testing.B, baseN, deltaN int) (*expr.Bound, []*relation.Relation, []delta.Update, []*relation.Relation) {
	b.Helper()
	db := benchDB(b)
	bound := mustBind(b, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A < 500000"),
		Project:  []schema.Attribute{"B"},
	}, db)
	g := workload.New(7)
	base, err := g.Relation(schema.MustScheme("A", "B"), baseN, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	ins, err := g.FreshTuples(base, deltaN, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	insRel, err := relation.FromTuples(schema.MustScheme("A", "B"), ins...)
	if err != nil {
		b.Fatal(err)
	}
	ups := []delta.Update{{Rel: "R", Inserts: insRel}}
	post := base.Clone()
	if err := ups[0].Apply(post); err != nil {
		b.Fatal(err)
	}
	return bound, []*relation.Relation{base}, ups, []*relation.Relation{post}
}

func BenchmarkSelectView(b *testing.B) {
	const baseN = 100_000
	for _, deltaN := range []int{1, 10, 100, 1_000, 10_000} {
		bound, pre, ups, post := selectViewFixture(b, baseN, deltaN)
		m, err := diffeval.NewMaintainer(bound, diffeval.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("delta=%d/differential", deltaN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.ComputeDelta(pre, ups); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("delta=%d/recompute", deltaN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Materialize(bound, post, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- C-PROJ: counted project maintenance under deletes ----------

func BenchmarkProjectView(b *testing.B) {
	for _, dup := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("dupfactor=%d", dup), func(b *testing.B) {
			db := benchDB(b)
			bound := mustBind(b, expr.View{
				Name:     "v",
				Operands: []expr.Operand{{Rel: "R"}},
				Project:  []schema.Attribute{"B"},
			}, db)
			// B domain shrunk so each B value has ~dup derivations.
			g := workload.New(11)
			base := relation.New(schema.MustScheme("A", "B"))
			const n = 50_000
			for i := 0; i < n; i++ {
				_ = base.Insert(tuple.New(int64(i), int64(i%(n/dup))))
			}
			dels := g.Sample(base, 500)
			delRel, err := relation.FromTuples(schema.MustScheme("A", "B"), dels...)
			if err != nil {
				b.Fatal(err)
			}
			ups := []delta.Update{{Rel: "R", Deletes: delRel}}
			m, err := diffeval.NewMaintainer(bound, diffeval.Options{})
			if err != nil {
				b.Fatal(err)
			}
			pre := []*relation.Relation{base}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ComputeDelta(pre, ups); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- C-JOIN / C-MEMO / C-ORDER / C-IDX: join views ----------

// joinFixture builds a p-way chain join with k modified relations,
// returning the bound view, pre-state, updates, post-state, and an
// index provider over the pre-state.
type joinFixture struct {
	bound *expr.Bound
	pre   []*relation.Relation
	ups   []delta.Update
	post  []*relation.Relation
	prov  benchProvider
}

type benchProvider map[string]map[int]*relation.Index

func (p benchProvider) Index(rel string, pos int) *relation.Index { return p[rel][pos] }

func makeJoinFixture(b *testing.B, p, k, rows, deltaN int) joinFixture {
	b.Helper()
	mod := make([]int, k)
	for i := range mod {
		mod[i] = i
	}
	return makeJoinFixtureMod(b, p, mod, rows, deltaN)
}

// makeJoinFixtureMod builds a chain fixture with net inserts on the
// listed relation indexes.
func makeJoinFixtureMod(b *testing.B, p int, modify []int, rows, deltaN int) joinFixture {
	b.Helper()
	g := workload.New(int64(100*p + len(modify)))
	ch, err := g.Chain(p, rows, int64(rows))
	if err != nil {
		b.Fatal(err)
	}
	bound, err := expr.Bind(ch.View, ch.DB)
	if err != nil {
		b.Fatal(err)
	}
	var ups []delta.Update
	post := make([]*relation.Relation, len(ch.Insts))
	for i := range post {
		post[i] = ch.Insts[i].Clone()
	}
	for _, i := range modify {
		ins, err := g.FreshTuples(ch.Insts[i], deltaN, int64(rows))
		if err != nil {
			b.Fatal(err)
		}
		insRel, err := relation.FromTuples(ch.Insts[i].Scheme(), ins...)
		if err != nil {
			b.Fatal(err)
		}
		u := delta.Update{Rel: ch.Names[i], Inserts: insRel}
		ups = append(ups, u)
		if err := u.Apply(post[i]); err != nil {
			b.Fatal(err)
		}
	}
	prov := make(benchProvider)
	for i, name := range ch.Names {
		prov[name] = make(map[int]*relation.Index)
		for pos := 0; pos < 2; pos++ {
			ix, err := relation.BuildIndex(ch.Insts[i], pos)
			if err != nil {
				b.Fatal(err)
			}
			prov[name][pos] = ix
		}
	}
	return joinFixture{bound: bound, pre: ch.Insts, ups: ups, post: post, prov: prov}
}

func benchStrategies(b *testing.B, fx joinFixture, strategies map[string]diffeval.Strategy, recompute bool) {
	b.Helper()
	for name, strat := range strategies {
		m, err := diffeval.NewMaintainer(fx.bound, diffeval.Options{Strategy: strat})
		if err != nil {
			b.Fatal(err)
		}
		indexed := strat == diffeval.StrategyIndexedDelta
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				if indexed {
					_, err = m.ComputeDeltaWith(fx.pre, fx.ups, fx.prov)
				} else {
					_, err = m.ComputeDelta(fx.pre, fx.ups)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if recompute {
		b.Run("recompute", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Materialize(fx.bound, fx.post, eval.Options{Greedy: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinView sweeps delta size for a 2-way join: differential
// (indexed and not) vs full re-evaluation — the headline §5.3 claim.
func BenchmarkJoinView(b *testing.B) {
	for _, deltaN := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("delta=%d", deltaN), func(b *testing.B) {
			fx := makeJoinFixture(b, 2, 1, 20_000, deltaN)
			benchStrategies(b, fx, map[string]diffeval.Strategy{
				"indexed":     diffeval.StrategyIndexedDelta,
				"prefixshare": diffeval.StrategyPrefixShare,
			}, true)
		})
	}
}

// BenchmarkRowsByK shows the 2^k − 1 row growth as more relations are
// modified in one transaction (§5.3's truth table).
func BenchmarkRowsByK(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("p=4/k=%d", k), func(b *testing.B) {
			fx := makeJoinFixture(b, 4, k, 5_000, 50)
			benchStrategies(b, fx, map[string]diffeval.Strategy{
				"indexed": diffeval.StrategyIndexedDelta,
			}, false)
		})
	}
}

// BenchmarkRowMemo quantifies the §5.3/§5.4 observation about re-using
// partial subexpressions across truth-table rows: prefix sharing vs
// independent row evaluation, p = k = 4 (15 rows).
func BenchmarkRowMemo(b *testing.B) {
	fx := makeJoinFixture(b, 4, 4, 5_000, 50)
	benchStrategies(b, fx, map[string]diffeval.Strategy{
		"prefixshare": diffeval.StrategyPrefixShare,
		"rowbyrow":    diffeval.StrategyRowByRow,
	}, false)
}

// BenchmarkDeltaJoinOrder quantifies the §5.3 join-order observation:
// fixed as-written order vs greedy smallest-first per row. The delta
// lands on the LAST chain relation, so the as-written order starts
// each row from a full base relation while greedy starts from the
// delta.
func BenchmarkDeltaJoinOrder(b *testing.B) {
	fx := makeJoinFixtureMod(b, 3, []int{2}, 20_000, 10)
	benchStrategies(b, fx, map[string]diffeval.Strategy{
		"aswritten": diffeval.StrategyRowByRow,
		"greedy":    diffeval.StrategyRowByRowGreedy,
	}, false)
}

// ---------- C-FILT: irrelevance-ratio sweep ----------

func BenchmarkMaintainFilter(b *testing.B) {
	db := benchDB(b)
	bound := mustBind(b, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("R.B = S.B && R.A < 1000"),
	}, db)
	g := workload.New(23)
	base, err := g.Relation(schema.MustScheme("A", "B"), 20_000, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	s, err := g.Relation(schema.MustScheme("B", "C"), 20_000, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	for _, relevantPct := range []int{0, 25, 50, 75, 100} {
		stream := g.ThresholdStream(2, 500, 1000, 10_000, float64(relevantPct)/100)
		insRel := relation.New(schema.MustScheme("A", "B"))
		for _, t := range stream {
			if !base.Has(t) {
				_ = insRel.Insert(t)
			}
		}
		ups := []delta.Update{{Rel: "R", Inserts: insRel}}
		pre := []*relation.Relation{base, s}
		for _, filter := range []bool{true, false} {
			m, err := diffeval.NewMaintainer(bound, diffeval.Options{Filter: filter, Strategy: diffeval.StrategyPrefixShare})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("relevant=%d%%/filter=%v", relevantPct, filter), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := m.ComputeDelta(pre, ups); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------- C-SPJ: realistic SPJ view end-to-end ----------

func BenchmarkSPJMaintain(b *testing.B) {
	g := workload.New(31)
	w, err := g.Orders(20_000, 2, 2_000, 4, 500, 50)
	if err != nil {
		b.Fatal(err)
	}
	bound, err := expr.Bind(expr.View{
		Name:     "hot",
		Operands: []expr.Operand{{Rel: "orders"}, {Rel: "items"}},
		Where:    pred.MustParse("orders.OID = items.OID && orders.REGION = 2 && items.QTY >= 40"),
		Project:  []schema.Attribute{"orders.OID", "orders.CUST", "items.SKU", "items.QTY"},
	}, w.DB)
	if err != nil {
		b.Fatal(err)
	}
	// One incoming order with 3 lines.
	oid := int64(1_000_000)
	insO := relation.MustFromTuples(w.Orders.Scheme(), tuple.New(oid, 7, 2))
	insI := relation.MustFromTuples(w.Items.Scheme(),
		tuple.New(oid, 1, 45), tuple.New(oid, 2, 10), tuple.New(oid, 3, 50))
	ups := []delta.Update{
		{Rel: "orders", Inserts: insO},
		{Rel: "items", Inserts: insI},
	}
	pre := []*relation.Relation{w.Orders, w.Items}
	post := []*relation.Relation{w.Orders.Clone(), w.Items.Clone()}
	_ = ups[0].Apply(post[0])
	_ = ups[1].Apply(post[1])
	prov := make(benchProvider)
	oix, _ := relation.BuildIndex(w.Orders, 0)
	iix, _ := relation.BuildIndex(w.Items, 0)
	prov["orders"] = map[int]*relation.Index{0: oix}
	prov["items"] = map[int]*relation.Index{0: iix}

	m, err := diffeval.NewMaintainer(bound, diffeval.Options{Filter: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("differential-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.ComputeDeltaWith(pre, ups, prov); err != nil {
				b.Fatal(err)
			}
		}
	})
	mp, err := diffeval.NewMaintainer(bound, diffeval.Options{Strategy: diffeval.StrategyPrefixShare})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("differential-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mp.ComputeDelta(pre, ups); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.Materialize(bound, post, eval.Options{Greedy: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- C-T42: multi-tuple irrelevance ----------

func BenchmarkMultiTuple(b *testing.B) {
	db := benchDB(b)
	bound := mustBind(b, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("R.B = S.B && R.A < 100 && S.C > 50"),
	}, db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := irrelevance.SetRelevant(bound, map[int]tuple.Tuple{
			0: tuple.New(int64(i%200), int64(i%50)),
			1: tuple.New(int64(i%50), int64(i%120)),
		}, irrelevance.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- C-NE: ≠ expansion cost ----------

func BenchmarkNeqExpansion(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("neq=%d", k), func(b *testing.B) {
			atoms := []pred.Atom{pred.VarConst("X0", pred.OpLT, 100)}
			for i := 0; i < k; i++ {
				atoms = append(atoms, pred.VarConst(pred.Var(fmt.Sprintf("X%d", i)), pred.OpNE, int64(i)))
			}
			c := pred.And(atoms...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs, err := pred.ExpandNE(c, 1024)
				if err != nil {
					b.Fatal(err)
				}
				for _, conj := range cs {
					if _, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodFloyd); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------- durability overhead ----------

// BenchmarkDurableExec measures the commit-log cost per transaction:
// in-memory vs logged (no fsync) vs logged+fsynced.
func BenchmarkDurableExec(b *testing.B) {
	type mode struct {
		name    string
		durable bool
		sync    bool
	}
	for _, m := range []mode{
		{"memory", false, false},
		{"logged", true, false},
		{"logged+fsync", true, true},
	} {
		b.Run(m.name, func(b *testing.B) {
			var d *DB
			if m.durable {
				var err error
				d, err = OpenDurable(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				d.SetLogSync(m.sync)
			} else {
				d = Open()
			}
			if err := d.CreateRelation("r", "A", "B"); err != nil {
				b.Fatal(err)
			}
			if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 1000000"}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Exec(Insert("r", int64(i), int64(i%7))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpoint measures what a checkpoint costs over a large
// sharded base when one commit dirtied one shard: "full-rewrite"
// forces every shard dirty before each checkpoint (the cost the old
// monolithic layout paid every time — and paid under the commit
// fence), "incremental" lets the dirty-shard tracking rewrite only the
// touched shard and re-reference the rest. fence-ns/op is how long the
// commit fence was actually held (capture + manifest swap); the rest
// of the checkpoint runs with commits flowing.
func BenchmarkCheckpoint(b *testing.B) {
	const rows = 100_000
	for _, m := range []struct {
		name string
		full bool
	}{
		{"full-rewrite", true},
		{"incremental", false},
	} {
		b.Run(m.name, func(b *testing.B) {
			d, err := OpenDurable(b.TempDir(), WithShards(8))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			if err := d.CreateRelation("r", "A", "B"); err != nil {
				b.Fatal(err)
			}
			if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "B < 3"}); err != nil {
				b.Fatal(err)
			}
			const batch = 1000
			for lo := int64(0); lo < rows; lo += batch {
				ops := make([]Op, batch)
				for j := range ops {
					i := lo + int64(j)
					ops[j] = Insert("r", i, i%7)
				}
				if _, err := d.Exec(ops...); err != nil {
					b.Fatal(err)
				}
			}
			// A baseline checkpoint so the incremental variant has a
			// previous manifest to reuse segments from.
			if err := d.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var fenceNS, bytes, segs int64
			for i := 0; i < b.N; i++ {
				if _, err := d.Exec(Insert("r", int64(rows+i), 1)); err != nil {
					b.Fatal(err)
				}
				if m.full {
					d.engine().MarkAllCheckpointDirty()
				}
				if err := d.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				st := d.LastCheckpointStats()
				fenceNS += st.FenceHold.Nanoseconds()
				bytes += st.BytesWritten
				segs += int64(st.SegmentsWritten)
			}
			b.ReportMetric(float64(fenceNS)/float64(b.N), "fence-ns/op")
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(segs)/float64(b.N), "segs/op")
		})
	}
}

// ---------- observability overhead ----------

// BenchmarkObsOverhead measures what metrics and tracing cost on the
// commit hot path: the same single-insert transaction against an
// immediate differential view, uninstrumented vs with a live registry
// vs registry plus each tracer the daemon can mount — a no-op tracer,
// a quiet slow-logger (threshold never met, pooled spans), and a live
// flight recorder capturing every commit's span tree. The
// uninstrumented path must stay within a few percent of the seed (one
// atomic pointer load per commit).
func BenchmarkObsOverhead(b *testing.B) {
	for _, m := range []struct {
		name string
		reg  bool
		tr   func() obs.Tracer
	}{
		{"off", false, nil},
		{"registry", true, nil},
		{"registry+tracer", true, func() obs.Tracer { return obs.NopTracer{} }},
		{"registry+slowlog", true, func() obs.Tracer {
			return &obs.SlowLogger{Threshold: time.Hour, Logf: func(string, ...any) {}}
		}},
		{"registry+recorder", true, func() obs.Tracer { return obs.NewFlightRecorder(16, 0) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			d := Open()
			if err := d.CreateRelation("r", "A", "B"); err != nil {
				b.Fatal(err)
			}
			if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 1000000"}, WithFilter()); err != nil {
				b.Fatal(err)
			}
			if m.reg {
				var tr obs.Tracer
				if m.tr != nil {
					tr = m.tr()
				}
				d.Instrument(obs.NewRegistry(), tr)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Exec(Insert("r", int64(i), int64(i%7))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------- C-SNAP: deferred snapshot refresh amortization ----------

func BenchmarkSnapshotRefresh(b *testing.B) {
	// A fixed workload of 100 small transactions over R(A,B), with a
	// select view A < 500. Immediate maintains per transaction;
	// deferred composes and refreshes once.
	db := benchDB(b)
	bound := mustBind(b, expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}},
		Where:    pred.MustParse("A < 500"),
	}, db)
	g := workload.New(41)
	base, err := g.Relation(schema.MustScheme("A", "B"), 50_000, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	const nTx = 100
	m, err := diffeval.NewMaintainer(bound, diffeval.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-generate the per-transaction updates.
	txUps := make([]delta.Update, nTx)
	state := base.Clone()
	for i := range txUps {
		ins, err := g.FreshTuples(state, 5, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		insRel, _ := relation.FromTuples(state.Scheme(), ins...)
		dels := g.Sample(state, 3)
		delRel, _ := relation.FromTuples(state.Scheme(), dels...)
		txUps[i] = delta.Update{Rel: "R", Inserts: insRel, Deletes: delRel}
		if err := txUps[i].Apply(state); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("immediate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cur := base.Clone()
			for _, u := range txUps {
				if _, err := m.ComputeDelta([]*relation.Relation{cur}, []delta.Update{u}); err != nil {
					b.Fatal(err)
				}
				if err := u.Apply(cur); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("deferred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			comp := txUps[0]
			for _, u := range txUps[1:] {
				var err error
				comp, err = delta.Compose(comp, u)
				if err != nil {
					b.Fatal(err)
				}
			}
			if _, err := m.ComputeDelta([]*relation.Relation{base}, []delta.Update{comp}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- C-PAR: parallel view maintenance inside one commit ----------

// sleepTracer adds a fixed blocking latency to every per-view delta
// computation (the diffeval.compute span), standing in for per-view
// work that waits rather than burns CPU — a remote trace sink, an
// audit write, future IO. It lets the worker-pool benchmark show
// overlap even on a single-core host, where CPU-bound maintenance
// cannot speed up.
type sleepTracer struct{ d time.Duration }

func (s sleepTracer) Start(name string, kv ...obs.KV) obs.Span {
	if name == "diffeval.compute" {
		time.Sleep(s.d)
	}
	return obs.NopTracer{}.Start(name)
}

func (s sleepTracer) Event(string, ...obs.KV) {}

// BenchmarkParallelCommit commits one transaction touching 8
// independent join views (vi = Ri ⋈ S) with the phase-1 fan-out on 1,
// 4, and GOMAXPROCS workers. The cpu variant is pure computation; the
// overlap variant adds 200µs of blocking latency per view delta via
// the tracer, the regime the pool is for.
//
// On a GOMAXPROCS=1 host the cpu rows are skipped rather than
// reported: with a single P the runtime cannot execute workers
// concurrently (and the pool deliberately inlines at one worker — see
// forEachParallel), so a "no speedup" row there would measure the
// scheduler, not the fan-out.
func BenchmarkParallelCommit(b *testing.B) {
	const nviews = 8
	workerRows := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		workerRows = append(workerRows, p)
	}
	for _, variant := range []struct {
		name string
		lat  time.Duration
	}{
		{"cpu", 0},
		{"overlap200us", 200 * time.Microsecond},
	} {
		for _, workers := range workerRows {
			b.Run(fmt.Sprintf("%s/workers=%d", variant.name, workers), func(b *testing.B) {
				if variant.lat == 0 && workers > 1 && runtime.GOMAXPROCS(0) == 1 {
					b.Skipf("cpu variant needs >1 P for %d workers; GOMAXPROCS=1 runs them sequentially", workers)
				}
				e := db.New(db.WithMaintWorkers(workers))
				for i := 0; i < nviews; i++ {
					if err := e.CreateRelation(fmt.Sprintf("R%d", i), "A", "B"); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.CreateRelation("S", "B", "C"); err != nil {
					b.Fatal(err)
				}
				var seed delta.Tx
				for i := 0; i < nviews; i++ {
					for j := 0; j < 1000; j++ {
						seed.Insert(fmt.Sprintf("R%d", i), tuple.New(int64(j), int64(j%50)))
					}
				}
				for j := 0; j < 50; j++ {
					seed.Insert("S", tuple.New(int64(j), int64(100+j)))
				}
				if _, err := e.Execute(&seed); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < nviews; i++ {
					v, err := expr.NaturalJoin(fmt.Sprintf("v%d", i), e.Scheme(),
						fmt.Sprintf("R%d", i), "S")
					if err != nil {
						b.Fatal(err)
					}
					if err := e.CreateView(v, db.ViewConfig{}); err != nil {
						b.Fatal(err)
					}
				}
				if variant.lat > 0 {
					e.SetObs(nil, sleepTracer{d: variant.lat})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var tx delta.Tx
					for r := 0; r < nviews; r++ {
						rel := fmt.Sprintf("R%d", r)
						if i%2 == 0 {
							tx.Insert(rel, tuple.New(9999, 1))
						} else {
							tx.Delete(rel, tuple.New(9999, 1))
						}
					}
					if _, err := e.Execute(&tx); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------- C-SNAP: lock-free snapshot reads ----------

// BenchmarkSnapshotReads measures view read throughput under 4
// concurrent writers. "snapshot" is the production path — View hands
// out the current immutable copy-on-write snapshot without taking the
// engine lock. "locked_clone" is the pre-snapshot discipline kept for
// comparison: acquire the lock, clone the materialization, release.
func BenchmarkSnapshotReads(b *testing.B) {
	for _, mode := range []string{"snapshot", "locked_clone"} {
		b.Run(mode, func(b *testing.B) {
			e := db.New()
			if err := e.CreateRelation("R", "A", "B"); err != nil {
				b.Fatal(err)
			}
			var seed delta.Tx
			for i := 0; i < 2000; i++ {
				seed.Insert("R", tuple.New(int64(i), int64(i%50)))
			}
			if _, err := e.Execute(&seed); err != nil {
				b.Fatal(err)
			}
			v := expr.View{Name: "v", Operands: []expr.Operand{{Rel: "R"}},
				Where: pred.MustParse("A < 1000")}
			if err := e.CreateView(v, db.ViewConfig{}); err != nil {
				b.Fatal(err)
			}

			// 4 writers keep committing view-relevant changes (each
			// insert is later deleted, so the view stays ~1000 rows).
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(id int64) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						var tx delta.Tx
						n := int64((i / 2) % 500)
						if i%2 == 0 {
							tx.Insert("R", tuple.New(n, id))
						} else {
							tx.Delete("R", tuple.New(n, id))
						}
						if _, err := e.Execute(&tx); err != nil {
							b.Error(err)
							return
						}
					}
				}(int64(w))
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					var c *relation.Counted
					var err error
					if mode == "snapshot" {
						c, err = e.View("v")
					} else {
						c, err = e.ViewCloneLocked("v")
					}
					if err != nil {
						b.Error(err)
						return
					}
					if c.Len() == 0 {
						b.Error("empty view")
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkViewGet measures what GET /v1/views/{name} pays for the
// rows and schema of a 500-row view (DB.ViewJSON, which the handler
// writes verbatim between its envelope). "memo" re-reads one published
// version: every read after the first is served from the version's
// memo. "render" reads a new version each time — a commit touching the
// view, untimed, precedes every read — so each read sorts and renders.
func BenchmarkViewGet(b *testing.B) {
	for _, mode := range []string{"memo", "render"} {
		b.Run(mode, func(b *testing.B) {
			d := Open()
			if err := d.CreateRelation("r", "A", "B", "C"); err != nil {
				b.Fatal(err)
			}
			var seed []Op
			for i := int64(0); i < 500; i++ {
				seed = append(seed, Insert("r", (i*7919)%500, i%17, -i))
			}
			if _, err := d.Exec(seed...); err != nil {
				b.Fatal(err)
			}
			if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 100000"}); err != nil {
				b.Fatal(err)
			}
			// The toggled row keeps the view between 500 and 501 rows.
			toggle := [2]Op{Insert("r", 1000, 0, 0), Delete("r", 1000, 0, 0)}
			if mode == "memo" {
				if _, _, _, err := d.ViewJSON("v"); err != nil { // the one render
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "render" {
					b.StopTimer()
					if _, err := d.Exec(toggle[i%2]); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				obj, count, _, err := d.ViewJSON("v")
				if err != nil || count < 500 || len(obj) == 0 {
					b.Fatalf("ViewJSON: %d rows, %d bytes, %v", count, len(obj), err)
				}
			}
		})
	}
}

// ---------- C-GROUP: group commit throughput ----------

// snapshotCounter reads one counter series from a registry snapshot.
func snapshotCounter(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// BenchmarkGroupCommit measures durable commit throughput with the
// fsync discipline that motivates group commit: every acknowledged
// transaction is on disk (SetLogSync true). Serial mode pays one fsync
// per transaction; group mode coalesces concurrent writers into one
// batched append + fsync, one composed maintenance pass, and one
// snapshot publish per group. The fsyncs/op metric (from
// mview_wal_fsyncs_total) drops below 1 exactly when groups form.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 16} {
		for _, mode := range []string{"serial", "group"} {
			b.Run(fmt.Sprintf("writers=%d/%s", writers, mode), func(b *testing.B) {
				d, err := OpenDurable(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				d.SetLogSync(true)
				reg := obs.NewRegistry()
				d.Instrument(reg, nil)
				if err := d.CreateRelation("r", "A", "B"); err != nil {
					b.Fatal(err)
				}
				if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 1000000000"}, WithFilter()); err != nil {
					b.Fatal(err)
				}
				if mode == "group" {
					d.EnableGroupCommit(0, 2*time.Millisecond)
				}
				fsync0 := snapshotCounter(reg, "mview_wal_fsyncs_total")
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							if _, err := d.Exec(Insert("r", i, i%7)); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				fsyncs := snapshotCounter(reg, "mview_wal_fsyncs_total") - fsync0
				b.ReportMetric(fsyncs/float64(b.N), "fsyncs/op")
				for _, s := range reg.Snapshot() {
					if s.Name == "mview_group_wait_seconds" && s.Count > 0 {
						b.ReportMetric(s.Sum/float64(s.Count)*1e6, "waitus/group")
						b.ReportMetric(float64(s.Count), "groups")
					}
				}
			})
		}
	}
}

// ---------- C-SHARD: hash-sharded base relations ----------

// BenchmarkShardedCommit measures commit latency against a fleet of
// range-partitioned selection views as the base relation's hash shard
// count grows. Each commit writes a 256-tuple delta through the public
// API (Open(WithShards(n))).
//
// "hot" concentrates the delta in one view's key range: with shards,
// the §4 checker prunes every (shard, view) task whose key bounds
// cannot satisfy the view's condition, so the 7 irrelevant views cost
// n range probes instead of 8×|δ| tuple evaluations — throughput
// improves with any shard count and prunes/op goes positive. "spread"
// scatters the delta across every view's range so nothing can be
// pruned; it bounds the fan-out overhead (tasks/op grows with n, and
// on a single-P host the extra scheduling is pure cost — multi-core
// hosts recover it as shard-parallel speedup).
func BenchmarkShardedCommit(b *testing.B) {
	const (
		nviews    = 8
		span      = 1 << 20 // keys per view's range
		deltaRows = 256
	)
	for _, variant := range []string{"hot", "spread"} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", variant, shards), func(b *testing.B) {
				var opts []Option
				if shards > 1 {
					opts = append(opts, WithShards(shards))
				}
				d := Open(opts...)
				if err := d.CreateRelation("r", "A", "B"); err != nil {
					b.Fatal(err)
				}
				for v := 0; v < nviews; v++ {
					spec := ViewSpec{From: []string{"r"},
						Where: fmt.Sprintf("A >= %d && A < %d", v*span, (v+1)*span)}
					if err := d.CreateView(fmt.Sprintf("v%d", v), spec); err != nil {
						b.Fatal(err)
					}
				}
				rng := rand.New(rand.NewSource(7))
				var seed []Op
				for i := 0; i < 4096; i++ {
					seed = append(seed, Insert("r", int64(rng.Intn(nviews*span)), int64(i%97)))
				}
				if _, err := d.Exec(seed...); err != nil {
					b.Fatal(err)
				}
				// The per-commit delta: B=1e9+j keeps it disjoint from the
				// seed, and each insert batch is deleted by the next
				// iteration so the relation stays at its seeded size.
				keys := make([]int64, deltaRows)
				for j := range keys {
					if variant == "hot" {
						keys[j] = int64(j * 4093 % span)
					} else {
						keys[j] = int64((j*4093*nviews + j) % (nviews * span))
					}
				}
				batch := func(del bool) []Op {
					ops := make([]Op, deltaRows)
					for j, k := range keys {
						if del {
							ops[j] = Delete("r", k, int64(1e9)+int64(j))
						} else {
							ops[j] = Insert("r", k, int64(1e9)+int64(j))
						}
					}
					return ops
				}
				shardStats := func() (tasks, pruned int) {
					for v := 0; v < nviews; v++ {
						s, err := d.Stats(fmt.Sprintf("v%d", v))
						if err != nil {
							b.Fatal(err)
						}
						tasks += s.ShardTasks
						pruned += s.ShardsPruned
					}
					return tasks, pruned
				}
				tasks0, pruned0 := shardStats()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := d.Exec(batch(i%2 == 1)...); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				tasks, pruned := shardStats()
				b.ReportMetric(float64(tasks-tasks0)/float64(b.N), "tasks/op")
				b.ReportMetric(float64(pruned-pruned0)/float64(b.N), "pruned/op")
			})
		}
	}
}

// ---------- C-FLAT: flat arena tuple storage + compiled predicates ----------

// BenchmarkFlatEval measures the commit-heavy eval hot path end to
// end through the public API: per-tuple §4 satisfiability checks,
// differential truth-table rows over tagged operands, §5.2 counted
// folds into the stored views, and the COW clones behind every
// snapshot publish.
//
// "select" commits 256-row deltas against 8 filtered range views over
// one base relation (every delta tuple passes through 8 compiled
// predicates and 8 irrelevance checkers); "join" commits order+item
// deltas against an orders ⋈ items view (tagged truth-table joins
// dominate). Run with -benchmem: the flat-arena + compiled-predicate
// storage layer is judged on ns/op and allocs/op here, and
// scripts/allocguard.sh pins the allocs/op budget in CI.
func BenchmarkFlatEval(b *testing.B) {
	b.Run("select", func(b *testing.B) {
		const (
			nviews = 8
			span   = 1 << 20
			rows   = 256
		)
		d := Open()
		if err := d.CreateRelation("r", "A", "B"); err != nil {
			b.Fatal(err)
		}
		for v := 0; v < nviews; v++ {
			spec := ViewSpec{From: []string{"r"},
				Where: fmt.Sprintf("A >= %d && A < %d", v*span, (v+1)*span)}
			if err := d.CreateView(fmt.Sprintf("v%d", v), spec, WithFilter()); err != nil {
				b.Fatal(err)
			}
		}
		var seed []Op
		for i := 0; i < 4096; i++ {
			seed = append(seed, Insert("r", int64(i*4093%(nviews*span)), int64(i%97)))
		}
		if _, err := d.Exec(seed...); err != nil {
			b.Fatal(err)
		}
		// Each batch scatters across every view's range; B=1e9+j keeps
		// it disjoint from the seed, and each insert batch is deleted by
		// the next iteration so the relation stays at its seeded size.
		batch := func(del bool) []Op {
			ops := make([]Op, rows)
			for j := 0; j < rows; j++ {
				k := int64((j*4093*nviews + j) % (nviews * span))
				if del {
					ops[j] = Delete("r", k, int64(1e9)+int64(j))
				} else {
					ops[j] = Insert("r", k, int64(1e9)+int64(j))
				}
			}
			return ops
		}
		ins, del := batch(false), batch(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops := ins
			if i%2 == 1 {
				ops = del
			}
			if _, err := d.Exec(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("join", func(b *testing.B) {
		const (
			orders    = 4096
			perOrder  = 2
			newOrders = 64
		)
		d := Open()
		if err := d.CreateRelation("orders", "OID", "CUST", "REGION"); err != nil {
			b.Fatal(err)
		}
		if err := d.CreateRelation("items", "OID", "SKU", "QTY"); err != nil {
			b.Fatal(err)
		}
		spec := ViewSpec{
			From:   []string{"orders", "items"},
			Where:  "orders.OID = items.OID && REGION = 2 && QTY >= 40",
			Select: []string{"orders.OID", "CUST", "SKU", "QTY"},
		}
		if err := d.CreateView("hot", spec, WithFilter()); err != nil {
			b.Fatal(err)
		}
		var seed []Op
		for o := 0; o < orders; o++ {
			seed = append(seed, Insert("orders", int64(o), int64(o%500), int64(o%4)))
			for l := 0; l < perOrder; l++ {
				seed = append(seed, Insert("items", int64(o), int64(o*perOrder+l), int64((o*7+l*13)%100)))
			}
		}
		if _, err := d.Exec(seed...); err != nil {
			b.Fatal(err)
		}
		// Each batch books 64 new orders with 2 lines each (half in the
		// view's region, half the QTY lines above threshold), deleted by
		// the next iteration.
		batch := func(del bool) []Op {
			var ops []Op
			mk := func(rel string, vals ...int64) Op {
				if del {
					return Delete(rel, vals...)
				}
				return Insert(rel, vals...)
			}
			for o := 0; o < newOrders; o++ {
				oid := int64(1_000_000 + o)
				ops = append(ops, mk("orders", oid, int64(o%500), int64(o%2)*2))
				for l := 0; l < perOrder; l++ {
					ops = append(ops, mk("items", oid, oid*perOrder+int64(l), int64((o*17+l*29)%100)))
				}
			}
			return ops
		}
		ins, del := batch(false), batch(true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ops := ins
			if i%2 == 1 {
				ops = del
			}
			if _, err := d.Exec(ops...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------- C-REPL: differential replication ----------

// benchReplWorkload drives writers concurrent committers through b.N
// transactions on the leader (the C-GROUP shape: an atomic counter
// hands out work, group commit composes whatever collides).
func benchReplWorkload(b *testing.B, d *DB, writers int) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if _, err := d.Exec(Insert("r", i%1000, i)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// benchReplWait blocks until the follower has applied through lsn.
func benchReplWait(b *testing.B, f *DB, lsn uint64) {
	b.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for f.follower.applied.Load() < lsn {
		if time.Now().After(deadline) {
			b.Fatalf("follower stuck at %d, want %d", f.follower.applied.Load(), lsn)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// benchReplLeader opens a durable group-commit leader with the C-REPL
// schema (a base relation and a selection view over it) and a tuned
// replication server.
func benchReplLeader(b *testing.B) (*DB, *repl.Server) {
	b.Helper()
	d, err := OpenDurable(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		b.Fatal(err)
	}
	if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 500"}); err != nil {
		b.Fatal(err)
	}
	d.EnableGroupCommit(0, 2*time.Millisecond)
	srv, err := d.ReplicationServer()
	if err != nil {
		b.Fatal(err)
	}
	srv.Poll = 200 * time.Microsecond
	srv.Heartbeat = 5 * time.Millisecond
	return d, srv
}

// benchReplHTTP fronts a replication server with the three wire routes
// on a real TCP listener — the same handlers mviewd registers, minus
// the unrelated API surface (importing the HTTP layer here would cycle).
func benchReplHTTP(b *testing.B, srv *repl.Server) *httptest.Server {
	b.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replication/snapshot", func(w http.ResponseWriter, r *http.Request) {
		_, _ = srv.Snapshot(w)
	})
	mux.HandleFunc("GET /v1/replication/stream", func(w http.ResponseWriter, r *http.Request) {
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		_ = srv.StreamTo(r.Context(), r.URL.Query().Get("id"), from, w)
	})
	mux.HandleFunc("POST /v1/replication/ack", func(w http.ResponseWriter, r *http.Request) {
		lsn, _ := strconv.ParseUint(r.URL.Query().Get("lsn"), 10, 64)
		srv.Ack(r.URL.Query().Get("id"), lsn)
	})
	ts := httptest.NewServer(mux)
	b.Cleanup(ts.Close)
	return ts
}

// BenchmarkReplication measures the differential replication pipeline.
//
// ship/* is end-to-end shipped-commit cost: the timer covers b.N
// leader commits (4 writers, group commit) plus the wait for one
// follower to apply everything — so ns/op bounds leader maintenance +
// wire + follower re-composed apply per transaction. "off" is the
// no-follower baseline; "local" adds an in-process follower (mock
// wire); "http" ships the same frames over a real TCP socket. The §6
// claim under test: shipping composed deltas keeps follower apply
// within ~2x of leader maintenance, because the follower replays one
// maintenance pass per commit group rather than per transaction.
func BenchmarkReplication(b *testing.B) {
	for _, transport := range []string{"off", "local", "http"} {
		b.Run("ship/"+transport, func(b *testing.B) {
			d, srv := benchReplLeader(b)
			var f *DB
			switch transport {
			case "local":
				var err error
				f, err = openFollowerTransport(repl.LocalTransport{S: srv}, "bench-local")
				if err != nil {
					b.Fatal(err)
				}
			case "http":
				ts := benchReplHTTP(b, srv)
				var err error
				f, err = OpenFollower(ts.URL, "bench-http")
				if err != nil {
					b.Fatal(err)
				}
			}
			if f != nil {
				defer f.Close()
				benchReplWait(b, f, d.wal.LastLSN()) // bootstrap before timing
			}
			b.ResetTimer()
			benchReplWorkload(b, d, 4)
			if f != nil {
				benchReplWait(b, f, d.wal.LastLSN())
			}
			b.StopTimer()
			if f != nil {
				st, _ := f.FollowerStatus()
				b.ReportMetric(float64(st.Resyncs), "resyncs")
			}
		})
	}

	// read_scaleout/* is the horizontal story: total view-read cost per
	// op with readers spread round-robin over n caught-up followers
	// while a writer keeps the stream busy. Per-read cost holding ~flat
	// as n grows means aggregate read throughput scales ~linearly with
	// replica count (each follower serves its own lock-free snapshots;
	// nothing is shared but the stream).
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("read_scaleout/followers=%d", n), func(b *testing.B) {
			d, srv := benchReplLeader(b)
			var seed []Op
			for i := int64(0); i < 2000; i++ {
				seed = append(seed, Insert("r", i%1000, i))
			}
			if _, err := d.Exec(seed...); err != nil {
				b.Fatal(err)
			}
			followers := make([]*DB, n)
			for i := range followers {
				f, err := openFollowerTransport(repl.LocalTransport{S: srv}, fmt.Sprintf("bench-f%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				followers[i] = f
				benchReplWait(b, f, d.wal.LastLSN())
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // background writes keep every stream applying
				defer wg.Done()
				for i := int64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%2 == 0 {
						_, _ = d.Exec(Insert("r", i%500, -1))
					} else {
						_, _ = d.Exec(Delete("r", i%500, -1))
					}
				}
			}()
			var rr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				f := followers[int(rr.Add(1))%n]
				for pb.Next() {
					c, err := f.engine().View("v")
					if err != nil {
						b.Error(err)
						return
					}
					if c.Len() == 0 {
						b.Error("empty view")
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// ---------- C-POLICY: refresh policies on a write-heavy workload ----------

// BenchmarkRefreshPolicy measures per-commit cost under each refresh
// policy on a write-only stream against a join view. On-commit pays
// differential maintenance inside every Exec; MaxStaleness (bound far
// beyond the bench) and on-demand only stage backlog, so their commit
// path is an append — the policy spectrum's write-side saving. The
// deferred variants still owe one refresh at the end; drainns/op is
// that cost amortized per commit, keeping the comparison honest.
func BenchmarkRefreshPolicy(b *testing.B) {
	policies := []struct {
		name string
		opt  ViewOption
	}{
		{"oncommit", OnCommit()},
		{"maxstale", MaxStaleness(time.Hour)},
		{"ondemand", OnDemand()},
	}
	for _, p := range policies {
		b.Run(p.name, func(b *testing.B) {
			d := Open()
			if err := d.CreateRelation("r", "A", "B"); err != nil {
				b.Fatal(err)
			}
			if err := d.CreateRelation("s", "B", "C"); err != nil {
				b.Fatal(err)
			}
			for j := int64(0); j < 256; j++ {
				if _, err := d.Exec(Insert("s", j, j*3)); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.CreateJoinView("v", []string{"r", "s"}, p.opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Exec(Insert("r", int64(i), int64(i%256))); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			start := time.Now()
			if err := d.RefreshAll(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(time.Since(start).Seconds()/float64(b.N)*1e9, "drainns/op")
			rows, err := d.View("v")
			if err != nil || len(rows) != b.N {
				b.Fatalf("converged view has %d rows, want %d (%v)", len(rows), b.N, err)
			}
		})
	}
}

// ---------- C-FANOUT: §4 filter cost vs number of filtered views ----------

// BenchmarkFilterFanout commits the benchmark's filter-fanout
// transaction shape — 8 rows of ev(K, A, B) replaced, 16 net tuples,
// 5% of them with a key some view can see — against V filtered views:
// eight in nine are K-range selections (K >= lo && K < hi && A < B + 5)
// over disjoint 1000-key ranges, one in nine a K-range join with
// dim(DB, W) over nine such ranges. With the commit routed through the
// relevance index (internal/db/route.go) the maintenance share is flat
// in V — a tuple costs one lookup plus its candidates — and what still
// grows is the per-view classification in the commit's phase 3; before,
// every view cost a task, a filtered copy of the update and an empty
// delta.
func BenchmarkFilterFanout(b *testing.B) {
	for _, views := range []int{36, 288, 1000} {
		b.Run(fmt.Sprintf("views=%d", views), func(b *testing.B) {
			const (
				width = 1000
				rows  = 20000
				hot   = rows / 20
				dims  = 200
			)
			joins := views / 9
			sels := views - joins
			span := sels * width
			d := Open()
			if err := d.CreateRelation("ev", "K", "A", "B"); err != nil {
				b.Fatal(err)
			}
			if err := d.CreateRelation("dim", "DB", "W"); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			ev := make([][3]int64, rows)
			var seed []Op
			for i := range ev {
				k := int64(span + i - hot)
				if i < hot {
					k = int64(i) * int64(span) / hot
				}
				ev[i] = [3]int64{k, int64(rng.Intn(dims + 10)), int64(rng.Intn(dims))}
				seed = append(seed, Insert("ev", ev[i][:]...))
			}
			for j := 0; j < dims; j++ {
				seed = append(seed, Insert("dim", int64(j), int64(rng.Intn(1000))))
			}
			if _, err := d.Exec(seed...); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < sels; i++ {
				spec := ViewSpec{From: []string{"ev"},
					Where: fmt.Sprintf("K >= %d && K < %d && A < B + 5", i*width, (i+1)*width)}
				if err := d.CreateView("sel"+strconv.Itoa(i), spec, WithFilter()); err != nil {
					b.Fatal(err)
				}
			}
			for j := 0; j < joins; j++ {
				spec := ViewSpec{From: []string{"ev", "dim"}, Select: []string{"K", "A", "W"},
					Where: fmt.Sprintf("B = DB && K >= %d && K < %d", j*span/joins, (j+1)*span/joins)}
				if err := d.CreateView("join"+strconv.Itoa(j), spec, WithFilter()); err != nil {
					b.Fatal(err)
				}
			}
			tx := func() []Op {
				ops := make([]Op, 0, 16)
				var picked [8]int
				for n := 0; n < len(picked); {
					r := hot + rng.Intn(rows-hot)
					if rng.Intn(20) == 0 {
						r = rng.Intn(hot)
					}
					dup := false
					for _, p := range picked[:n] {
						dup = dup || p == r
					}
					if dup {
						continue
					}
					picked[n] = r
					n++
					old := ev[r]
					ev[r][1] = (old[1] + 1 + int64(rng.Intn(dims+9))) % (dims + 10)
					ev[r][2] = (old[2] + 1 + int64(rng.Intn(dims-1))) % dims
					ops = append(ops, Delete("ev", old[:]...), Insert("ev", ev[r][:]...))
				}
				return ops
			}
			for i := 0; i < 64; i++ { // first commit builds the index
				if _, err := d.Exec(tx()...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var chunk [256][]Op
			for i := 0; i < b.N; i++ {
				if i%len(chunk) == 0 {
					b.StopTimer()
					for j := range chunk {
						chunk[j] = tx()
					}
					b.StartTimer()
				}
				if _, err := d.Exec(chunk[i%len(chunk)]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
