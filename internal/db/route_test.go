package db

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// routeFleet creates R(A,B,C), S(D,E) and a random set of immediate
// views over them — selections, joins, offset joins, self-joins, DNFs,
// ≠ atoms, projections that fold several derivations into one tuple —
// most of them filtered, so the commit path routes their deltas through
// the relevance index.
func routeFleet(t *testing.T, rng *rand.Rand, opts ...Option) (*Engine, []expr.View) {
	t.Helper()
	e := New(opts...)
	if err := e.CreateRelation("R", "A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "D", "E"); err != nil {
		t.Fatal(err)
	}
	c := func() int { return rng.Intn(30) }
	rangeOn := func(attr string) string {
		lo := c()
		return fmt.Sprintf("%s >= %d && %s < %d", attr, lo, attr, lo+1+rng.Intn(12))
	}
	var defs []expr.View
	for i, n := 0, 1+rng.Intn(14); i < n; i++ {
		v := expr.View{Name: fmt.Sprintf("v%d", i)}
		var where string
		switch rng.Intn(7) {
		case 0:
			v.Operands = []expr.Operand{{Rel: "R"}}
			where = rangeOn("A") + fmt.Sprintf(" && B < C + %d", rng.Intn(6))
		case 1:
			v.Operands = []expr.Operand{{Rel: "R"}}
			where = fmt.Sprintf("(%s) || (%s && C != %d)", rangeOn("A"), rangeOn("B"), c())
		case 2:
			v.Operands = []expr.Operand{{Rel: "S"}}
			where = rangeOn("D")
		case 3:
			v.Operands = []expr.Operand{{Rel: "R"}, {Rel: "S"}}
			where = "B = D && " + rangeOn("A")
			v.Project = []schema.Attribute{"A", "E"}
		case 4:
			v.Operands = []expr.Operand{{Rel: "R"}, {Rel: "S"}}
			where = fmt.Sprintf("C <= E + %d && A = D && %s", rng.Intn(4), rangeOn("E"))
		case 5:
			v.Operands = []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}}
			where = "x.B = y.A && " + rangeOn("x.A")
			v.Project = []schema.Attribute{"x.A", "y.C"}
		default:
			v.Operands = []expr.Operand{{Rel: "R"}, {Rel: "S"}}
			where = fmt.Sprintf("A = D + %d && D = E && %s", rng.Intn(3), rangeOn("E"))
			v.Project = []schema.Attribute{"B"}
		}
		v.Where = pred.MustParse(where)
		cfg := ViewConfig{Maint: diffeval.Options{Filter: rng.Intn(5) > 0}}
		if rng.Intn(6) == 0 {
			cfg.Policy = PolicyAdaptive
		}
		if err := e.CreateView(v, cfg); err != nil {
			t.Fatalf("%s (%s): %v", v.Name, where, err)
		}
		defs = append(defs, v)
	}
	return e, defs
}

// routeRound draws one round of n transactions over R and S whose
// tuples are pairwise distinct, so the round commutes and may commit
// concurrently. live tracks which tuples are present.
func routeRound(rng *rand.Rand, live map[string]map[string]tuple.Tuple, n int) []*delta.Tx {
	used := make(map[string]bool)
	txs := make([]*delta.Tx, n)
	for i := range txs {
		tx := &delta.Tx{}
		for ops := 1 + rng.Intn(6); ops > 0; ops-- {
			rel, tu := "R", tuple.New(int64(rng.Intn(36)), int64(rng.Intn(36)), int64(rng.Intn(36)))
			if rng.Intn(4) == 0 {
				rel, tu = "S", tuple.New(int64(rng.Intn(36)), int64(rng.Intn(36)))
			}
			if len(live[rel]) > 0 && rng.Intn(3) == 0 {
				for _, old := range live[rel] { // delete some present tuple
					tu = old
					break
				}
			}
			key := rel + tu.Key()
			if used[key] {
				continue
			}
			used[key] = true
			if _, present := live[rel][tu.Key()]; present {
				tx.Delete(rel, tu)
				delete(live[rel], tu.Key())
			} else {
				tx.Insert(rel, tu)
				live[rel][tu.Key()] = tu
			}
		}
		txs[i] = tx
	}
	return txs
}

// TestRouteEngineMatchesMaterialize is the engine-level twin of the
// index's soundness oracle: random view sets, random transactions, and
// after every commit (every concurrent round, under group commit)
// every view must equal eval.Materialize from scratch — rows and §5.2
// counts — unsharded and sharded, group commit off and on.
func TestRouteEngineMatchesMaterialize(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, group := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("shards=%d/group=%v/seed=%d", shards, group, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					e, defs := routeFleet(t, rng, WithShards(shards))
					writers := 1
					if group {
						writers = 4
						e.EnableGroupCommit(writers, time.Millisecond, nil)
						defer e.DisableGroupCommit()
					}
					live := map[string]map[string]tuple.Tuple{"R": {}, "S": {}}
					for round := 0; round < 40; round++ {
						txs := routeRound(rng, live, writers)
						var wg sync.WaitGroup
						for _, tx := range txs {
							if tx.Len() == 0 {
								continue
							}
							wg.Add(1)
							go func(tx *delta.Tx) {
								defer wg.Done()
								if _, err := e.Execute(tx); err != nil {
									t.Errorf("round %d: %v", round, err)
								}
							}(tx)
						}
						wg.Wait()
						for _, def := range defs {
							got, err := e.View(def.Name)
							if err != nil {
								t.Fatal(err)
							}
							want, err := e.Query(def, eval.Options{})
							if err != nil {
								t.Fatal(err)
							}
							if !got.Equal(want) {
								t.Fatalf("round %d: view %s (%s) diverged from recomputation:\n got: %v\nwant: %v",
									round, def.Name, def.Where, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// lazyProvider serves diffeval the persistent indexes the engine keeps
// (one per equi-join column), built on demand over a frozen base state.
type lazyProvider struct {
	base  map[string]*relation.Relation
	built map[string]*relation.Index
}

func (p *lazyProvider) Index(rel string, pos int) *relation.Index {
	key := fmt.Sprintf("%s/%d", rel, pos)
	if ix, ok := p.built[key]; ok {
		return ix
	}
	ix, err := relation.BuildIndex(p.base[rel], pos)
	if err != nil {
		panic(err)
	}
	p.built[key] = ix
	return ix
}

// TestRouteCountContract pins what the benchmark's harness checks from
// outside: the filter counters count one verdict per (tuple, filtered
// view operand) — including the verdicts the relevance index reaches
// without running a view's test — and every other per-view counter
// advances as if each view had been maintained on its own. The
// reference is exactly that: one diffeval.Maintainer per view, run
// serially with its own filter over each transaction's net updates.
func TestRouteCountContract(t *testing.T) {
	e := New()
	if err := e.CreateRelation("R", "K", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "SB", "W"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)

	const sels = 12
	var defs []expr.View
	for i := 0; i < sels; i++ {
		defs = append(defs, expr.View{
			Name:     fmt.Sprintf("sel%d", i),
			Operands: []expr.Operand{{Rel: "R"}},
			Where:    pred.MustParse(fmt.Sprintf("K >= %d && K < %d && A < B + 5", i*10, (i+1)*10)),
		})
	}
	defs = append(defs,
		expr.View{Name: "join", Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
			Where: pred.MustParse("B = SB && K >= 20 && K < 70"), Project: []schema.Attribute{"K", "W"}},
		expr.View{Name: "self", Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}},
			Where: pred.MustParse("x.A = y.B && x.K < 30 && y.K >= 90")},
	)
	filter := diffeval.Options{Filter: true}
	for _, def := range defs {
		if err := e.CreateView(def, ViewConfig{Maint: filter}); err != nil {
			t.Fatal(err)
		}
	}

	type reference struct {
		m                 *diffeval.Maintainer
		data              *relation.Counted
		want              ViewStats
		discarded, passed int
	}
	refs := make([]*reference, len(defs))
	for i, def := range defs {
		b, err := expr.Bind(def, e.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		m, err := diffeval.NewMaintainer(b, filter)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = &reference{m: m, data: relation.NewCounted(e.views[def.Name].data.Scheme())}
	}

	rng := rand.New(rand.NewSource(3))
	live := map[string]map[string]tuple.Tuple{"R": {}, "S": {}}
	// Keys run past every view's range, so most tuples reach no view.
	draw := func(rel string) tuple.Tuple {
		if rel == "S" {
			return tuple.New(int64(rng.Intn(12)), int64(rng.Intn(50)))
		}
		return tuple.New(int64(rng.Intn(600)), int64(rng.Intn(12)), int64(rng.Intn(12)))
	}
	for n := 0; n < 120; n++ {
		tx := &delta.Tx{}
		rel := "R"
		if n%5 == 4 {
			rel = "S" // reaches only the join view
		}
		for m := 0; m < 6; m++ {
			tu := draw(rel)
			if _, present := live[rel][tu.Key()]; present {
				tx.Delete(rel, tu)
				delete(live[rel], tu.Key())
			} else {
				tx.Insert(rel, tu)
				live[rel][tu.Key()] = tu
			}
		}
		pre := map[string]*relation.Relation{}
		for _, name := range []string{"R", "S"} {
			r, err := e.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			pre[name] = r
		}
		res := exec(t, e, tx)
		prov := &lazyProvider{base: pre, built: map[string]*relation.Index{}}
		touched := 0
		for _, ref := range refs {
			b := ref.m.Bound()
			hit := false
			insts := make([]*relation.Relation, len(b.Operands))
			for i, op := range b.Operands {
				insts[i] = pre[op.Rel]
				for _, u := range res.Updates {
					hit = hit || u.Rel == op.Rel
				}
			}
			if !hit {
				continue
			}
			touched++
			d, err := ref.m.ComputeDeltaWith(insts, res.Updates, prov)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffeval.Apply(ref.data, d); err != nil {
				t.Fatal(err)
			}
			ref.want.Transactions++
			ref.want.Refreshes++
			ref.want.RowsEvaluated += d.Stats.RowsEvaluated
			ref.want.JoinSteps += d.Stats.JoinSteps
			ref.want.FilteredOut += d.Stats.FilteredOut
			ref.want.DeltaInserts += d.Stats.DeltaInserts
			ref.want.DeltaDeletes += d.Stats.DeltaDeletes
			ref.discarded += d.Stats.FilteredOut
			ref.passed += d.Stats.FilterChecked - d.Stats.FilteredOut
		}
		if res.ViewsRefreshed != touched {
			t.Fatalf("tx %d: ViewsRefreshed = %d, want %d", n, res.ViewsRefreshed, touched)
		}
	}

	var sumDiscarded, sumPassed, wantDiscarded, wantPassed int
	for i, def := range defs {
		ref := refs[i]
		got, err := e.ViewStats(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref.want {
			t.Errorf("%s: ViewStats = %+v\nwant %+v", def.Name, got, ref.want)
		}
		labels := map[string]string{"view": def.Name}
		discarded := int(series(t, reg, "mview_filter_discarded_total", labels).Value)
		passed := int(series(t, reg, "mview_filter_passed_total", labels).Value)
		if discarded != ref.discarded || passed != ref.passed {
			t.Errorf("%s: filter counters discarded/passed = %d/%d, want %d/%d",
				def.Name, discarded, passed, ref.discarded, ref.passed)
		}
		if n := int(refreshCount(t, reg, def.Name, "differential")); n != ref.want.Refreshes {
			t.Errorf("%s: refresh histogram count = %d, want %d", def.Name, n, ref.want.Refreshes)
		}
		sumDiscarded, sumPassed = sumDiscarded+discarded, sumPassed+passed
		wantDiscarded, wantPassed = wantDiscarded+ref.discarded, wantPassed+ref.passed
		view, err := e.View(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !view.Equal(ref.data) {
			t.Errorf("%s: view diverged from the serial reference", def.Name)
		}
	}
	if sumDiscarded != wantDiscarded || sumPassed != wantPassed {
		t.Errorf("summed discarded/passed = %d/%d, want %d/%d", sumDiscarded, sumPassed, wantDiscarded, wantPassed)
	}
	if wantPassed == 0 || wantDiscarded < 10*wantPassed {
		t.Errorf("workload should discard most verdicts: %d discarded, %d passed", wantDiscarded, wantPassed)
	}
}

// TestRouteMaintSpanAttributes checks the commit.maint span says what
// the routing did — and that a view nothing reached gets no maint.task
// span of its own.
func TestRouteMaintSpanAttributes(t *testing.T) {
	e := New()
	if err := e.CreateRelation("R", "K", "A"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		def := expr.View{Name: fmt.Sprintf("v%d", i), Operands: []expr.Operand{{Rel: "R"}},
			Where: pred.MustParse(fmt.Sprintf("K >= %d && K < %d", i*10, (i+1)*10))}
		if err := e.CreateView(def, ViewConfig{Maint: diffeval.Options{Filter: true}}); err != nil {
			t.Fatal(err)
		}
	}
	tr := &obs.CollectingTracer{}
	e.SetObs(obs.NewRegistry(), tr)
	var tx delta.Tx
	tx.Insert("R", tuple.New(5, 1)).Insert("R", tuple.New(500, 1)).Insert("R", tuple.New(501, 1))
	exec(t, e, &tx)

	tasks := 0
	var maint *obs.CollectedSpan
	for i, s := range tr.Spans {
		switch s.Name {
		case "commit.maint":
			maint = &tr.Spans[i]
		case "maint.task":
			tasks++
		}
	}
	if maint == nil {
		t.Fatal("no commit.maint span")
	}
	got := map[string]any{}
	for _, kv := range maint.KVs {
		got[kv.K] = kv.V
	}
	// Three tuples; only (5,1) has a candidate (v0), which it reaches.
	for k, want := range map[string]int{"tuples": 3, "candidates": 1, "routed_views": 1} {
		if got[k] != want {
			t.Errorf("commit.maint %s = %v, want %d (attrs %v)", k, got[k], want, got)
		}
	}
	if tasks != 1 {
		t.Errorf("maint.task spans = %d, want 1 (only v0 was reached)", tasks)
	}
}
